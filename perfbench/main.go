// Command perfbench is the repository's benchmark. It serves one named
// workload from a seed-generated trace, measures the host decode rate and
// the modelled device rate, checks the outputs, and prints one JSON result
// line. Run it from the repository root through its wrapper, which builds
// it inside the checkout:
//
//	bash perfbench/run.sh --workload serve-fused --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
// and prints the per-layer metrics, writing a Chrome trace, a self-time
// summary and the CPU profile under --out. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/parallel"
	"repro/internal/serving"
)

// defaultSeed is the seed the benchmark uses when none is given.
const defaultSeed = 1

// setupReps is how many times a run repeats its set-up; setup_s is the median.
const setupReps = 5

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one invocation's metrics, checks and provenance.
type bench struct {
	name    string
	seed    uint64
	seconds float64
	outDir  string

	metrics   map[string]metric
	samples   map[string]int // sample count behind each median or percentile
	attempted int
	failed    int
	problems  []string
	notes     map[string]any
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check and the requests it covered.
func (b *bench) fail(requests int, err error) {
	b.failed += requests
	b.problems = append(b.problems, err.Error())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: serve-fused, serve-cache or cluster-chaos")
	seed := fs.Uint64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "host seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the trace, summary and profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := setupFuncs[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || math.IsNaN(*seconds) {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	b := &bench{
		name: *workload, seed: *seed, seconds: *seconds, outDir: *out,
		metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]any{},
	}
	var err error
	if *trace == 1 {
		err = b.traced(setup)
	} else {
		err = b.untraced(setup)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	prov := b.provenance()
	pj, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	return 0
}

// setupTimes runs a workload's set-up reps times and returns the last
// prepared workload with the host seconds of every set-up.
func setupTimes(setup func(uint64) (*prepared, error), seed uint64, reps int) (*prepared, []float64, error) {
	var times []float64
	var p *prepared
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := now()
		var err error
		if p, err = setup(seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, since(start))
	}
	return p, times, nil
}

// differential runs the once-per-invocation checks outside the timed
// region, on a prefix of the trace: procs 1 ≡ procs N by digest, and on the
// fused workload fused ≡ per-session decode.
func (b *bench) differential(p *prepared) error {
	prefix := 16
	if p.nodes > 0 {
		prefix = 30
	}
	base, err := p.run(runOpts{prefix: prefix})
	if err != nil {
		return err
	}
	want, err := digest(base)
	if err != nil {
		return err
	}
	procs := parallel.Procs()
	parallel.SetProcs(1)
	serial, err := p.run(runOpts{prefix: prefix})
	parallel.SetProcs(procs)
	if err != nil {
		return err
	}
	b.attempted += 2 * base.submitted
	if got, err := digest(serial); err != nil {
		return err
	} else if got != want {
		b.fail(base.submitted, fmt.Errorf("procs 1 digest %s differs from procs %d digest %s", got, procs, want))
	}
	if p.name == "serve-fused" {
		unfused, err := p.run(runOpts{prefix: prefix, noFuse: true})
		if err != nil {
			return err
		}
		b.attempted += base.submitted
		if got, err := digest(unfused); err != nil {
			return err
		} else if got != want {
			b.fail(base.submitted, fmt.Errorf("per-session digest %s differs from fused digest %s", got, want))
		}
	}
	b.notes["differential_prefix_requests"] = base.submitted
	return nil
}

// rep is one timed run of the whole workload.
type rep struct {
	out    *outcome
	wall   float64
	digest string
}

// timedReps serves the workload repeatedly for the given host seconds
// (at least once; a further run starts only if it is expected to end
// within a quarter of the budget past it) and checks every run.
func (b *bench) timedReps(p *prepared, seconds float64, o func() runOpts) ([]rep, error) {
	var reps []rep
	start := now()
	for {
		runtime.GC()
		opts := o()
		t0 := now()
		out, err := p.run(opts)
		if err != nil {
			return nil, err
		}
		r := rep{out: out, wall: since(t0)}
		if r.digest, err = digest(out); err != nil {
			return nil, err
		}
		b.attempted += out.submitted
		if err := conserve(out); err != nil {
			b.fail(out.submitted, err)
		}
		if len(reps) > 0 && r.digest != reps[0].digest {
			b.fail(out.submitted, fmt.Errorf("run %d digest %s differs from run 0 digest %s", len(reps), r.digest, reps[0].digest))
		}
		reps = append(reps, r)
		elapsed := since(start)
		if elapsed+elapsed/float64(len(reps)) > 1.25*seconds {
			return reps, nil
		}
	}
}

// wallTokS returns the median per-run decoded tokens per host second.
func wallTokS(reps []rep) float64 {
	rates := make([]float64, len(reps))
	for i, r := range reps {
		total, _ := r.out.tokens()
		rates[i] = float64(total) / r.wall
	}
	return median(rates)
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(setup func(uint64) (*prepared, error)) error {
	p, times, err := setupTimes(setup, b.seed, setupReps)
	if err != nil {
		return err
	}
	b.set("setup_s", median(times), "s")
	b.samples["setup_s"] = len(times)
	if err := b.differential(p); err != nil {
		return err
	}
	reps, err := b.timedReps(p, b.seconds, func() runOpts { return runOpts{} })
	if err != nil {
		return err
	}
	b.set("wall_tok_s", wallTokS(reps), "tok/s")
	b.samples["wall_tok_s"] = len(reps)
	_, peak := rusage()
	b.set("peak_rss_mb", peak, "MiB")
	b.simMetrics(reps[0].out)
	b.notes["digest"] = reps[0].digest
	return nil
}

// simMetrics sets the simulated end-to-end metrics; they repeat exactly.
func (b *bench) simMetrics(o *outcome) {
	var simTokS, goodput, attain float64
	if o.eng != nil {
		simTokS, goodput, attain = o.eng.SimTokS, o.eng.Goodput, o.eng.SLOAttainRate
	} else {
		simTokS, goodput, attain = o.clu.SimTokS, o.clu.Goodput, o.clu.SLOAttainRate
	}
	var turns []float64
	var lnSum, weight float64
	ok := 0
	for _, sm := range o.sessions() {
		if sm.Outcome != serving.OutcomeOK {
			continue
		}
		ok++
		turns = append(turns, sm.Turnaround)
		if sm.Point.PPL > 0 {
			lnSum += float64(sm.Tokens) * math.Log(sm.Point.PPL)
			weight += float64(sm.Tokens)
		}
	}
	b.set("sim_tok_s", simTokS, "tok/sim-s")
	b.set("sim_goodput_tok_s", goodput, "tok/sim-s")
	b.set("sim_ppl", math.Exp(lnSum/weight), "ppl")
	b.set("slo_attain", attain, "frac")
	b.set("turn_p50_ticks", quantile(turns, 0.5), "ticks")
	b.set("turn_p90_ticks", quantile(turns, 0.9), "ticks")
	b.set("req_ok_frac", float64(ok)/float64(o.submitted), "frac")
	b.samples["turn_p50_ticks"], b.samples["turn_p90_ticks"] = len(turns), len(turns)
	b.samples["sim_ppl"] = ok
}

// provenance records where and how the numbers were made.
func (b *bench) provenance() map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	prov := map[string]any{
		"workload": b.name, "seed": b.seed, "default_seed": defaultSeed, "seconds": b.seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "pool_procs": parallel.Procs(),
		"cpu_model": cpuModel(), "go_version": runtime.Version(),
		"git_revision": rev, "git_modified": modified,
		"samples": b.samples, "checks_failed": b.problems,
	}
	for k, v := range b.notes {
		prov[k] = v
	}
	return prov
}

// cpuModel returns the host CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
