package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/serving"
	"repro/internal/serving/obs"
)

// cpuShareLayers are the packages whose profile share is printed.
var cpuShareLayers = []string{"tensor", "cache", "sparsity", "nn", "model", "eval", "serving", "cluster", "runtime"}

// gcCPU reads the runtime's cumulative GC and total CPU-second estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// traced is the traced run: an untraced baseline, the traced and profiled
// runs, the ladder, and the per-layer metrics.
func (b *bench) traced(setup func(uint64) (*prepared, error)) error {
	p, _, err := setupTimes(setup, b.seed, 1)
	if err != nil {
		return err
	}
	half := b.seconds / 2

	// Untraced baseline: wall rate, cores busy and the runtime's counters.
	var ms0, ms1 runtime.MemStats
	cpu0, _ := rusage()
	gc0, tot0 := gcCPU()
	runtime.ReadMemStats(&ms0)
	start := now()
	base, err := b.timedReps(p, half, func() runOpts { return runOpts{} })
	if err != nil {
		return err
	}
	wall := since(start)
	runtime.ReadMemStats(&ms1)
	gc1, tot1 := gcCPU()
	cpu1, _ := rusage()
	baseTok := 0
	for _, r := range base {
		total, _ := r.out.tokens()
		baseTok += total
	}
	b.set("parallel.cores_busy", (cpu1-cpu0)/wall, "cores")
	b.set("runtime.alloc_b_per_tok", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(baseTok), "B/tok")
	b.set("runtime.allocs_per_tok", float64(ms1.Mallocs-ms0.Mallocs)/float64(baseTok), "allocs/tok")
	b.set("runtime.gc_cpu_frac", ratio(gc1-gc0, tot1-tot0), "frac")

	// Traced runs under the CPU profiler.
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	runSpan := tr.begin("bench", "bench.traced_runs")
	traced, err := b.timedReps(p, half, func() runOpts { return runOpts{tr: tr} })
	tr.end(runSpan)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	for i, r := range traced {
		if r.digest != base[0].digest {
			b.fail(r.out.submitted, fmt.Errorf("traced run %d digest %s differs from untraced digest %s", i, r.digest, base[0].digest))
		}
		if err := reconcile(r.out); err != nil {
			b.fail(r.out.submitted, err)
		}
	}
	b.set("trace.overhead_frac", 1-wallTokS(traced)/wallTokS(base), "frac")
	b.samples["trace.overhead_frac"] = len(traced)

	ladderSpan := tr.begin("bench", "bench.ladder")
	lo, err := ladder(tr, p)
	tr.end(ladderSpan)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	pr, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares := cpuShares(pr)
	for _, pkg := range cpuShareLayers {
		b.set(pkg+".cpu_share", shares[pkg], "frac")
	}
	b.samples["cpu_share"] = int(pr.ticks)
	rungs := b.layerMetrics(tr, traced, lo)
	b.notes["digest"] = base[0].digest
	return b.writeTrace(tr, prof.Bytes(), rungs, shares, topLeaves(pr, 15))
}

// layerMetrics sets the per-layer metrics from the traced runs and the
// ladder, and returns the ladder's rung decomposition.
func (b *bench) layerMetrics(tr *tracer, traced []rep, lo *ladderOut) []rung {
	o := traced[0].out
	sessions := o.sessions()
	tokens, good := o.tokens()
	var r *serving.Report // the engine report, or nil for the cluster
	var reports []*serving.Report
	if o.eng != nil {
		r = o.eng
		reports = []*serving.Report{r}
	} else {
		for _, nr := range o.clu.Nodes {
			reports = append(reports, nr.Report)
		}
	}

	// serving: decode ticks and batch widths from the step-batch events.
	var stepTicks, widthSum, simTicks, preempts, retries int
	var misses int64
	for _, ev := range o.eventLog() {
		if ev.Kind != obs.KindStepBatch {
			continue
		}
		stepTicks++
		if w, err := strconv.Atoi(strings.TrimPrefix(ev.Detail, "width=")); err == nil {
			widthSum += w
		}
	}
	for _, nr := range reports {
		simTicks += nr.Ticks
		preempts += nr.Preemptions
		retries += nr.Retries
		misses += nr.CacheMisses
	}
	var queues []float64
	var density, dw float64
	for _, sm := range sessions {
		if sm.Outcome != serving.OutcomeShed {
			queues = append(queues, float64(sm.QueueTicks))
		}
		density += sm.Point.Density * float64(sm.Decoded)
		dw += float64(sm.Decoded)
	}
	b.set("serving.ticks", float64(stepTicks), "ticks")
	b.set("serving.idle_ticks", float64(simTicks-stepTicks), "ticks")
	b.set("serving.batch_width", ratio(float64(widthSum), float64(stepTicks)), "sessions")
	b.set("serving.queue_p90_ticks", quantile(queues, 0.9), "ticks")
	b.set("serving.preemptions", float64(preempts), "count")
	b.set("serving.retries", float64(retries), "count")
	b.samples["serving.queue_p90_ticks"] = len(queues)

	// Tick times: engine ticks for one engine, cluster ticks for the cluster.
	tickLayer, other := "serving", "cluster"
	if o.clu != nil {
		tickLayer, other = "cluster", "serving"
	}
	ticks := tr.durations(tickLayer + ".tick")
	tickTail, tailP := tail(ticks)
	b.set(tickLayer+".tick_us_p50", median(ticks), "us")
	b.set(tickLayer+".tick_us_tail", tickTail, "us")
	b.set(other+".tick_us_p50", 0, "us")
	b.set(other+".tick_us_tail", 0, "us")
	b.samples[tickLayer+".tick_us"] = len(ticks)
	b.notes[tickLayer+".tick_us_tail_percentile"] = tailP
	tickSum, tracedTok := 0.0, 0
	for _, t := range ticks {
		tickSum += t
	}
	for _, rp := range traced {
		n, _ := rp.out.tokens()
		tracedTok += n
	}
	tickPerTok := tickSum / float64(tracedTok)

	newEngine := tr.durations("serving.new_engine")
	b.set("serving.new_engine_ms", median(newEngine)/1e3, "ms")
	b.samples["serving.new_engine_ms"] = len(newEngine)
	if c := o.clu; c != nil {
		newCluster := tr.durations("cluster.new")
		b.set("cluster.new_ms", median(newCluster)/1e3, "ms")
		b.samples["cluster.new_ms"] = len(newCluster)
		b.set("cluster.migrations", float64(c.Migrations), "count")
		b.set("cluster.stranded", float64(c.Stranded), "count")
		b.set("cluster.detect_lag_ticks", c.MeanDetectLag, "ticks")
		b.set("cluster.wasted_tok_frac", 1-ratio(float64(good), float64(tokens)), "frac")
		b.set("cluster.imbalance", c.Imbalance, "ratio")
	} else {
		for _, m := range []struct{ name, unit string }{{"cluster.new_ms", "ms"}, {"cluster.migrations", "count"},
			{"cluster.stranded", "count"}, {"cluster.detect_lag_ticks", "ticks"},
			{"cluster.wasted_tok_frac", "frac"}, {"cluster.imbalance", "ratio"}} {
			b.set(m.name, 0, m.unit) // not on this workload's path
		}
	}

	// eval, model, sparsity, nn, tensor and cache from the ladder.
	b.set("eval.batch_step_us_per_tok", lo.batchStepUs, "us/tok")
	b.set("eval.commit_us_per_tok", lo.commitUs, "us/tok")
	b.set("eval.step_us_per_tok", lo.stepUs, "us/tok")
	modelUs := lo.stepBatchUs - (lo.hookUs - lo.forwardUs) // minus the benchmark's own hook bookkeeping
	b.set("model.step_batch_us_per_tok", modelUs, "us/tok")
	b.set("sparsity.forward_batch_us_per_tok", lo.forwardUs, "us/tok")
	b.set("sparsity.density", ratio(density, dw), "frac")
	b.set("nn.attn_step_us_per_tok", lo.attnUs, "us/tok")
	b.set("tensor.sparse_batch_ns_per_col", lo.sparseNsCol, "ns/col")
	b.set("tensor.batch_ns_per_col", lo.denseNsCol, "ns/col")
	b.set("tensor.topk_ns", lo.topkNs, "ns")
	b.set("tensor.host_gb_s", lo.hostGBs, "GB/s")
	b.set("cache.access_us_per_tok", lo.accessUs, "us/tok")
	b.set("cache.evictions_per_tok", lo.evictionsPerTok, "units/tok")
	b.samples["ladder_tokens"] = lo.tokens

	var hitRate, simTokS float64
	if r != nil {
		hitRate, simTokS = r.HitRate, r.SimTokS
	} else {
		hitRate, simTokS = o.clu.HitRate, o.clu.SimTokS
	}
	b.set("cache.hit_rate", hitRate, "frac")
	b.set("cache.miss_units_per_tok", ratio(float64(misses), float64(tokens)), "units/tok")
	b.set("hwsim.sim_ms_per_tok", ratio(1e3, simTokS), "sim-ms/tok")

	// The rung decomposition: each rung is the rung below plus a remainder.
	evalUs := lo.batchStepUs + lo.commitUs
	rungs := []rung{
		{Name: tickLayer + ".tick", UsPerTok: tickPerTok, Below: "eval.batch_step+eval.commit", BelowUs: evalUs,
			Remainder: tickLayer + ".remainder"},
		{Name: "eval.batch_step+eval.commit", UsPerTok: evalUs, Below: "model.step_batch+cache.access",
			BelowUs: modelUs + lo.accessUs, Remainder: "eval.remainder"},
		{Name: "model.step_batch", UsPerTok: modelUs, Below: "sparsity.forward_batch", BelowUs: lo.forwardUs,
			Remainder: "model.remainder"},
		{Name: "sparsity.forward_batch", UsPerTok: lo.forwardUs, Below: "tensor.sparse_batch+tensor.topk",
			BelowUs: lo.kernelUs, Remainder: "sparsity.remainder"},
	}
	for i := range rungs {
		rungs[i].RemUs = rungs[i].UsPerTok - rungs[i].BelowUs
		b.set(rungs[i].Remainder+"_us_per_tok", rungs[i].RemUs, "us/tok")
	}
	b.set(other+".remainder_us_per_tok", 0, "us/tok")
	return rungs
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the Chrome trace, the self-time summary and the CPU
// profile under the output directory.
func (b *bench) writeTrace(tr *tracer, prof []byte, rungs []rung, shares map[string]float64, top []leafShare) error {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", b.name, b.seed))
	var chrome bytes.Buffer
	if err := writeChrome(&chrome, tr.spans); err != nil {
		return err
	}
	summary, err := json.MarshalIndent(map[string]any{
		"workload": b.name, "seed": b.seed,
		"layers": selfTimes(tr.spans), "ladder": rungs,
		"cpu_share": shares, "top_leaf_functions": top,
	}, "", "  ")
	if err != nil {
		return err
	}
	for _, f := range []struct {
		path string
		data []byte
	}{
		{base + ".trace.json", chrome.Bytes()},
		{base + ".summary.json", summary},
		{base + ".cpu.pprof", prof},
	} {
		if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
			return err
		}
	}
	b.notes["trace_files"] = base + ".{trace.json,summary.json,cpu.pprof}"
	return nil
}
