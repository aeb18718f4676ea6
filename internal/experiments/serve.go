package experiments

import (
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// Serve benchmarks the multi-stream serving engine (internal/serving) over
// a grid of workload × scheduler × preemptor × arbitration: K DIP-CA
// sessions in two SLO classes (interactive: high priority with a deadline;
// batch: best effort) arrive through a workload — all at once (fixed), as a
// seeded open-loop Poisson trace, as a closed loop with think time, or
// replayed from a trace file — and are admitted by a pluggable scheduler
// (FCFS, strict priority, or earliest-deadline-first), with an optional
// preemptor suspending running best-effort sessions when deadlined entries
// outrank them, against a shared DRAM cache budget. Every reported metric runs on the simulated tick clock
// (queueing delay, turnaround, per-token latency, SLO attainment, hit rate
// under contention) and is bit-identical for a fixed -seed; host wall
// throughput rides along as the final annotation column.
func Serve(l *Lab) ([]*Table, error) {
	// Batch width is a serving-policy knob, not a host property: capping it
	// below the session count exercises queueing and slot backfill, while
	// the wall-clock fan-out inside a tick is still bounded by the worker
	// pool.
	slotCap := 4
	if l.Scale == model.ScalePaper {
		slotCap = 8
	}
	g := newServingGrid(l, "serve", 8, 16, 6, slotCap)
	slots := min(g.k, slotCap)
	scheme := sparsity.NewDIPCA(0.5, 0.2)

	// The trace file is loaded once; the grid re-binds the parsed entries
	// per cell (each engine consumes its own workload cursor).
	var traceEntries []serving.TraceEntry
	if l.ServeWorkload == "trace" {
		if l.ServeTrace == "" {
			return nil, fmt.Errorf("serve: the trace workload needs a trace file (dipbench -trace)")
		}
		f, err := os.Open(l.ServeTrace)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		entries, err := serving.ParseTrace(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		traceEntries = entries
	}

	makeReqs := func() []serving.Request {
		return g.requests(scheme, func(i int) string { return fmt.Sprintf("s%02d", i) })
	}
	newWorkload := func(kind string) (serving.Workload, error) {
		switch kind {
		case "fixed":
			return serving.FixedBatch(makeReqs()), nil
		case "poisson":
			return g.poisson(makeReqs(), slots)
		case "closed":
			users := max(slots, 2)
			scripts := make([][]serving.Request, users)
			for i, r := range makeReqs() {
				scripts[i%users] = append(scripts[i%users], r)
			}
			return serving.ClosedLoop(scripts, g.svcTicks/2)
		case "trace":
			return serving.TraceWorkload(traceEntries, serving.TraceBinder{
				Corpus: g.toks,
				Scheme: func(name string) (sparsity.Scheme, error) {
					switch name {
					case "", "dipca":
						return scheme, nil
					case "dip":
						return sparsity.NewDIP(0.5), nil
					}
					return nil, fmt.Errorf("serve: trace scheme %q not in the binder table (dip|dipca)", name)
				},
			})
		}
		return nil, fmt.Errorf("serve: unknown workload %q (known: %v)", kind, serving.WorkloadNames())
	}

	workloads := []string{"fixed", "poisson", "closed"}
	scheds := []serving.Scheduler{serving.FCFS(), serving.Priority(), serving.EDF()}
	arbs := []serving.ArbPolicy{serving.ArbFairShare, serving.ArbShared}
	preempts := []serving.Preemptor{serving.NoPreempt(), serving.DeadlinePreempt()}
	if l.ServeSmoke {
		workloads = []string{"fixed", "poisson"}
		scheds = []serving.Scheduler{serving.FCFS(), serving.EDF()}
		preempts = []serving.Preemptor{serving.NoPreempt()}
	}
	if l.ServeWorkload != "" {
		workloads = []string{l.ServeWorkload}
	}
	if l.ServeSched != "" {
		s, err := serving.ParseScheduler(l.ServeSched)
		if err != nil {
			return nil, err
		}
		scheds = []serving.Scheduler{s}
	}
	if l.ServePreempt != "" {
		p, err := serving.ParsePreemptor(l.ServePreempt)
		if err != nil {
			return nil, err
		}
		preempts = []serving.Preemptor{p}
	}
	if l.ServeArb != "" {
		a, err := serving.ParseArbPolicy(l.ServeArb)
		if err != nil {
			return nil, err
		}
		arbs = []serving.ArbPolicy{a}
	}

	fuse, err := l.fuseMode("serve")
	if err != nil {
		return nil, err
	}
	cols := []string{"workload", "sched", "preempt", "policy", "sessions", "slots",
		"sim_tok_s", "goodput", "hit_rate", "mean_ppl", "p50_lat_ms", "p99_lat_ms",
		"queue_p50_t", "turn_p99_t", "slo_attain", "preempts", "retries", "shed"}
	if l.obsTracing() {
		// Windowed telemetry from the observability snapshot: decode rate
		// and queue depth over the trailing -obs-window ticks at finish.
		// Inserted before the fused/wall tail so the wall annotation(s)
		// stay the trailing columns the determinism checks strip.
		cols = append(cols, "win_tok_t", "win_q_depth")
	}
	out := &Table{
		ID:      "serve",
		Title:   "Workload grid: DIP-CA sessions, SLO classes, and pluggable schedulers under a shared cache budget (LFU, A18-class device)",
		Columns: append(cols, fuseColumns(fuse)...),
	}
	// Wall-throughput aggregates for the fuse-comparison summary table; the
	// differential guarantees both paths decode the same tokens.
	var tokens int
	var fusedSeconds, unfusedSeconds float64
	// -faults threads the seeded chaos plan through every grid cell; the
	// cells stay bit-identical for a fixed seed because fault draws are pure
	// functions of (seed, tick, slot).
	var plan faults.Injector
	if l.ServeFaults > 0 {
		p, err := faults.Mix(l.ServeFaults, l.ServeSeed+2)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	for _, kind := range workloads {
		for _, sched := range scheds {
			for _, pre := range preempts {
				for _, arb := range arbs {
					cell := fmt.Sprintf("%s-%s-%s-%s", kind, sched.Name(), pre.Name(), arb)
					rep, unfusedWall, err := gridCell(g, fuse, cell, func(noFuse bool) (*serving.Report, []obs.Event, error) {
						w, err := newWorkload(kind)
						if err != nil {
							return nil, nil, err
						}
						cfg := g.config(arb, sched, slots)
						cfg.Preempt, cfg.NoFuse, cfg.Faults = pre, noFuse, plan
						cfg.Retry = faults.RetryPolicy{MaxAttempts: l.ServeRetry}
						cfg.ShedQueueBudget, cfg.Degrade = l.ServeShed, l.ServeShed > 0
						return g.runEngine(cell, cfg, w)
					}, splitWall)
					if err != nil {
						return nil, err
					}
					tokens += rep.TotalTokens
					fusedSeconds += rep.Wall.Seconds
					unfusedSeconds += unfusedWall.Seconds
					var ppl float64
					ok := 0
					for _, sm := range rep.Sessions {
						if sm.Outcome == serving.OutcomeOK {
							ppl += sm.Point.PPL
							ok++
						}
					}
					if ok > 0 {
						ppl /= float64(ok)
					}
					row := []any{kind, sched.Name(), pre.Name(), arb.String(), len(rep.Sessions), slots,
						rep.SimTokS, rep.Goodput, rep.HitRate, ppl,
						rep.SimLatencyP50 * 1e3, rep.SimLatencyP99 * 1e3,
						rep.QueueP50, rep.TurnaroundP99, rep.SLOAttainRate, rep.Preemptions,
						rep.Retries, rep.Shed}
					if l.obsTracing() {
						row = append(row, rep.Obs.TokensPerTick, rep.Obs.MeanQueueDepth)
					}
					out.AddRow(append(row, fuseCells(fuse, rep.Wall, unfusedWall)...)...)
				}
			}
		}
	}
	out.Notes = append(out.Notes,
		"every column except wall_tok_s runs on the simulated tick clock and is bit-identical for a fixed -seed, any worker count",
		"queue_p50_t / turn_p99_t are arrival→admission and arrival→finish percentiles in ticks; slo_attain is over deadlined sessions",
	)
	for _, kind := range workloads {
		if kind != "trace" {
			out.Notes = append(out.Notes, fmt.Sprintf(
				"generated interactive sessions carry priority 2 and a %d-tick deadline; batch sessions are best-effort (dipbench -slo overrides)", g.deadline))
			break
		}
	}
	out.Notes = append(out.Notes,
		"preempt=deadline suspends the loosest-deadline running session when a queued entry's deadline is strictly earlier (stream state kept, resumed later); preempts counts mid-run suspensions",
		"fair partitions the cache budget across slots; shared is one contended cache with slot-order commits",
		"goodput counts only tokens of sessions that completed OK (retried prefixes, failed, cancelled, and shed work excluded); without -faults it equals sim_tok_s",
		"wall_tok_s is the host annotation (sessions fan out over the worker pool); it varies run to run",
		"fused=on decodes the batch through the multi-RHS kernels (one weight walk per tick); -fuse off|both selects the per-session path or both",
	)
	if l.obsTracing() {
		out.Notes = append(out.Notes,
			"win_tok_t / win_q_depth are the trailing -obs-window decode rate and mean queue depth from the observability snapshot; with -events each cell also wrote <prefix>-<cell> event logs, reconciled against the report counters",
		)
	}
	tables := []*Table{out}
	if fuse == "both" {
		cmp := &Table{
			ID:      "serve-fuse",
			Title:   "Fused vs per-session decode: aggregate wall throughput over the whole grid",
			Columns: []string{"cells", "fused_tok_s", "unfused_tok_s", "speedup"},
			Notes: []string{
				"every cell's simulated report was verified bit-identical across the two paths before timing was compared",
				"aggregate wall tok/s = total decoded tokens / total engine wall seconds per path, summed over the grid",
			},
		}
		ft, ut := 0.0, 0.0
		if fusedSeconds > 0 {
			ft = float64(tokens) / fusedSeconds
		}
		if unfusedSeconds > 0 {
			ut = float64(tokens) / unfusedSeconds
		}
		speedup := 0.0
		if ut > 0 {
			speedup = ft / ut
		}
		cmp.AddRow(len(out.Rows), ft, ut, speedup)
		tables = append(tables, cmp)
	}
	return tables, nil
}
