// Command dipbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dipbench -list
//	dipbench -exp tab1                # one experiment at paper scale
//	dipbench -exp all -out results/   # everything, one file per experiment
//	dipbench -exp tab2 -scale test    # fast miniature run
//	dipbench -exp tab1 -ckpt ckpts/   # reuse checkpoints from diptrain
//	dipbench -exp tab2 -procs 1       # pin the worker pool (serial run)
//	dipbench -exp tab2 -cpuprofile cpu.out -memprofile mem.out
//	dipbench -serve                   # serving grid: workload × scheduler × arbitration
//	dipbench -serve -small            # CI-sized serving smoke run
//	dipbench -serve -seed 42          # reproducible arrivals and admission order
//	dipbench -serve -workload poisson -rate 0.2 -sched edf -slo 200
//	dipbench -serve -workload trace -trace trace.json -arb shared
//	dipbench -serve -small -fuse both  # fused vs per-session decode, one report
//	dipbench -serve -sched edf -preempt deadline  # deadline-aware preemption
//	dipbench -serve -small -faults 0.05 -retry 3 -shed 8  # seeded chaos on the grid
//	dipbench -exp chaos -small        # fault-injection grid: recovery vs baseline
//	dipbench -serve -small -events out/ev            # one JSONL event log per grid cell
//	dipbench -serve -small -events out/ev -events-format chrome -obs-window 64
//	dipbench -serve -nodes 3                  # sim-cluster: 3 replica engines behind a router
//	dipbench -serve -small -nodes 3 -router least-loaded -seed 7
//	dipbench -serve -small -nodes 3 -drain-tick 40   # drain the last node at tick 40
//	dipbench -serve -small -nodes 3 -node-chaos 0.02  # unscripted crash+recover chaos
//	dipbench -serve -small -nodes 3 -node-chaos 0.02 -detect-miss 4 -recover-ticks 30
//
// The serving-only flags (-small, -seed, -workload, -rate, -slo, -trace,
// -sched, -preempt, -arb, -fuse, -faults, -retry, -shed, -events,
// -events-format, -obs-window, -nodes, -router, -drain-tick, -node-chaos,
// -detect-miss, -recover-ticks) are rejected without -serve (or -exp serve
// / -exp chaos / -exp all), -small conflicts with an explicit -scale paper,
// and -slo/-rate are rejected where they would be ignored (trace files
// carry their own deadlines; only poisson has a rate) — all hard errors,
// not silent overrides. -nodes routes -serve to the cluster scenario
// (router × arbitration over N replica engines with drain and failover
// replays); -router and -drain-tick shape it, and -node-chaos adds a
// chaos replay per multi-node cell (seeded unscripted node crashes with
// timed restarts) run through the heartbeat failure detector, the zero-lag
// oracle, and with detection off — -detect-miss and -recover-ticks tune
// the detector threshold and outage length.
//
// Every run also emits a machine-readable BENCH_results.json (per
// experiment: wall time in ns and the headline row of each table) into -out
// when set, else the working directory; -json overrides the path and
// -json none disables it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/serving"
	"repro/internal/serving/obs"
)

// benchTable is the JSON record of one rendered table.
type benchTable struct {
	ID          string            `json:"id"`
	Rows        int               `json:"rows"`
	HeadlineRow map[string]string `json:"headline_row,omitempty"`
}

// benchResult is the JSON record of one experiment run.
type benchResult struct {
	ID     string       `json:"id"`
	NS     int64        `json:"ns"`
	Tables []benchTable `json:"tables"`
}

// benchReport is the BENCH_results.json document.
type benchReport struct {
	Scale   string        `json:"scale"`
	Procs   int           `json:"procs"`
	Results []benchResult `json:"results"`
}

// fail reports an error and returns the process exit code; callers return
// it up through run so deferred cleanup (CPU profile flushing) still fires.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "dipbench: "+format+"\n", args...)
	return 1
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		scale      = flag.String("scale", "paper", "paper | test")
		ckpt       = flag.String("ckpt", "", "checkpoint directory (shared with diptrain)")
		outDir     = flag.String("out", "", "write each experiment's tables to <out>/<id>.txt as well as stdout")
		csvOut     = flag.Bool("csv", false, "also write <out>/<table>.csv for plotting (needs -out)")
		verbose    = flag.Bool("v", true, "log lab progress to stderr")
		procs      = flag.Int("procs", 0, "worker-pool size (0 = GOMAXPROCS / $REPRO_PROCS; 1 = serial)")
		serve      = flag.Bool("serve", false, "run the multi-stream serving scenario (shorthand for -exp serve)")
		small      = flag.Bool("small", false, "with -serve: CI-sized smoke run (runs at -scale test, fewer sessions)")
		seed       = flag.Uint64("seed", 0, "with -serve: seed for the arrival trace and admission tiebreak RNG")
		workload   = flag.String("workload", "", "with -serve: restrict the grid to one workload (fixed|poisson|closed|trace)")
		rate       = flag.Float64("rate", 0, "with -serve: poisson arrival rate in requests/tick (0 = arrival ≈ service rate)")
		slo        = flag.Int("slo", 0, "with -serve: interactive-class SLO deadline in ticks (0 = scale default)")
		tracePath  = flag.String("trace", "", "with -serve -workload trace: trace file (JSON or CSV) to replay")
		sched      = flag.String("sched", "", "with -serve: restrict the grid to one scheduler (fcfs|prio|edf)")
		preempt    = flag.String("preempt", "", "with -serve: restrict the grid to one preemption policy (none|deadline|prio)")
		fuse       = flag.String("fuse", "", "with -serve: batched decode path (on|off|both; both runs each cell through both paths, checks the reports match bit for bit, and records both wall throughputs)")
		arb        = flag.String("arb", "", "with -serve: restrict the grid to one arbitration policy (exclusive|fair|greedy|shared)")
		faultRate  = flag.Float64("faults", 0, "with -serve or -exp chaos: seeded fault-injection rate in [0,1] (faults.Mix; 0 = off for -serve, the default sweep for chaos)")
		retry      = flag.Int("retry", 0, "with -serve or -exp chaos: retry budget in total attempts under fault injection (0 = engine default 3; 1 = no recovery)")
		shed       = flag.Int("shed", 0, "with -serve or -exp chaos: admission-control queue budget (0 = no shedding; positive also enables graceful degradation)")
		nodes      = flag.Int("nodes", 0, "with -serve: replica node count for the sim-cluster grid (setting it routes -serve to the cluster scenario; 0 = the single-engine serve grid)")
		router     = flag.String("router", "", "with -serve -nodes N: restrict the cluster grid to one session router (hash|least-loaded|slo)")
		drainTick  = flag.Int("drain-tick", 0, "with -serve -nodes N: tick at which the cluster drain scenario drains its last node (0 = one service time into the run)")
		nodeChaos  = flag.Float64("node-chaos", 0, "with -serve -nodes N: unscripted node-chaos crash rate per node per tick, in (0, 1] (adds a chaos replay per multi-node cell: heartbeat detector vs zero-lag oracle vs detection off)")
		detectMiss = flag.Int("detect-miss", 0, "with -serve -nodes N: consecutive heartbeat misses before the failure detector confirms a node down (0 = cluster default 4)")
		recoverT   = flag.Int("recover-ticks", 0, "with -serve -nodes N: ticks a chaos-crashed node stays down before restarting (0 = half a service time)")
		events     = flag.String("events", "", "with -serve or -exp chaos: enable event tracing and write one event log per grid cell to <PREFIX>-<cell>.<ext>")
		eventsFmt  = flag.String("events-format", "", "with -serve or -exp chaos: event-log format (jsonl|chrome; default jsonl; needs -events)")
		obsWindow  = flag.Int("obs-window", 0, "with -serve or -exp chaos: moving-window width in simulated ticks for windowed telemetry (0 = serving default; enables tracing)")
		jsonPath   = flag.String("json", "", "BENCH_results.json path ('' = <out>/BENCH_results.json or ./BENCH_results.json; 'none' disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *serve {
		if *exp != "" && *exp != "serve" {
			fmt.Fprintln(os.Stderr, "dipbench: -serve conflicts with -exp")
			return 2
		}
		*exp = "serve"
	}
	// -nodes N turns the serving run into the sim-cluster scenario: N
	// replica engines behind a session router instead of one engine.
	if set["nodes"] && *exp == "serve" {
		*exp = "cluster"
	}
	// The serving-only flags are hard errors outside the serving scenario —
	// silently ignoring them would let a typo'd invocation masquerade as a
	// reproducible run. -exp all includes the serve experiment, so the
	// shaping flags pass through; -small stays serve-only because it forces
	// the scale, which would rescale every other experiment too.
	servesToo := *exp == "serve" || *exp == "chaos" || *exp == "cluster" || *exp == "all"
	for _, f := range []string{"seed", "workload", "rate", "slo", "trace", "sched", "preempt", "arb", "fuse", "faults", "retry", "shed", "events", "events-format", "obs-window", "nodes", "router", "drain-tick", "node-chaos", "detect-miss", "recover-ticks"} {
		if set[f] && !servesToo {
			fmt.Fprintf(os.Stderr, "dipbench: -%s only applies to the serving scenarios; add -serve (or -exp serve / -exp chaos / -exp all)\n", f)
			return 2
		}
	}
	if *small && *exp != "serve" && *exp != "chaos" && *exp != "cluster" {
		fmt.Fprintln(os.Stderr, "dipbench: -small only applies to the serving scenarios; add -serve (or -exp serve / -exp chaos)")
		return 2
	}
	if *small {
		// -small runs at test scale; overriding an explicit -scale paper
		// silently would report miniature numbers as paper-scale ones.
		if set["scale"] && *scale != "test" {
			fmt.Fprintf(os.Stderr, "dipbench: -small runs at -scale test but -scale %s was requested; drop one of the two\n", *scale)
			return 2
		}
		*scale = "test"
	}
	if *fuse != "" && *fuse != "on" && *fuse != "off" && *fuse != "both" {
		fmt.Fprintf(os.Stderr, "dipbench: -fuse must be on, off, or both, got %q\n", *fuse)
		return 2
	}
	if *workload != "" {
		known := false
		for _, w := range serving.WorkloadNames() {
			known = known || w == *workload
		}
		if !known {
			fmt.Fprintf(os.Stderr, "dipbench: unknown workload %q (known: %v)\n", *workload, serving.WorkloadNames())
			return 2
		}
	}
	if *sched != "" {
		if _, err := serving.ParseScheduler(*sched); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %v\n", err)
			return 2
		}
	}
	if *preempt != "" {
		if _, err := serving.ParsePreemptor(*preempt); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %v\n", err)
			return 2
		}
	}
	if *arb != "" {
		if _, err := serving.ParseArbPolicy(*arb); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %v\n", err)
			return 2
		}
	}
	if set["faults"] && (math.IsNaN(*faultRate) || *faultRate <= 0 || *faultRate > 1) {
		fmt.Fprintf(os.Stderr, "dipbench: -faults must be a rate in (0, 1], got %v\n", *faultRate)
		return 2
	}
	if set["retry"] && *retry <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -retry must be a positive total attempt count (1 = no recovery), got %d\n", *retry)
		return 2
	}
	if set["shed"] && *shed <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -shed must be a positive queue budget, got %d\n", *shed)
		return 2
	}
	if set["events"] && *events == "" {
		fmt.Fprintln(os.Stderr, "dipbench: -events needs a path prefix for the per-cell event logs")
		return 2
	}
	if *eventsFmt != "" {
		if _, err := obs.ParseFormat(*eventsFmt); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %v\n", err)
			return 2
		}
		if *events == "" {
			fmt.Fprintln(os.Stderr, "dipbench: -events-format shapes the event-log files; add -events PREFIX")
			return 2
		}
	}
	if set["obs-window"] && *obsWindow <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -obs-window must be a positive width in simulated ticks, got %d\n", *obsWindow)
		return 2
	}
	if *exp == "chaos" {
		// The chaos grid pins its workload (poisson) and scheduler (EDF) so
		// the recovery comparison is apples to apples; flags that would be
		// silently ignored are hard errors, as everywhere else.
		for _, f := range []string{"workload", "trace", "sched", "fuse", "nodes", "router", "drain-tick", "node-chaos", "detect-miss", "recover-ticks"} {
			if set[f] {
				fmt.Fprintf(os.Stderr, "dipbench: -%s does not apply to the chaos scenario (fixed poisson workload, EDF admission, single engine)\n", f)
				return 2
			}
		}
	}
	if set["nodes"] && *nodes <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -nodes must be a positive replica count, got %d\n", *nodes)
		return 2
	}
	if *router != "" {
		if _, err := cluster.ParseRouter(*router); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %v\n", err)
			return 2
		}
	}
	if set["drain-tick"] && *drainTick <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -drain-tick must be a positive tick, got %d\n", *drainTick)
		return 2
	}
	if set["drain-tick"] && set["nodes"] && *nodes == 1 {
		fmt.Fprintln(os.Stderr, "dipbench: -drain-tick needs at least two nodes (a one-node cluster has nowhere to migrate the drained queue)")
		return 2
	}
	if set["node-chaos"] && (math.IsNaN(*nodeChaos) || *nodeChaos <= 0 || *nodeChaos > 1) {
		fmt.Fprintf(os.Stderr, "dipbench: -node-chaos must be a crash rate in (0, 1], got %v\n", *nodeChaos)
		return 2
	}
	if set["node-chaos"] && set["nodes"] && *nodes == 1 {
		fmt.Fprintln(os.Stderr, "dipbench: -node-chaos needs at least two nodes (a one-node cluster has nowhere to fail over)")
		return 2
	}
	if set["detect-miss"] && *detectMiss <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -detect-miss must be a positive heartbeat-miss count, got %d\n", *detectMiss)
		return 2
	}
	if set["recover-ticks"] && *recoverT <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -recover-ticks must be a positive outage length in ticks, got %d\n", *recoverT)
		return 2
	}
	if *exp == "cluster" {
		// The cluster grid pins its workload (poisson), scheduler (EDF), and
		// fault plan (the scripted node failure) the same way.
		for _, f := range []string{"workload", "trace", "sched", "preempt", "faults", "retry", "shed"} {
			if set[f] {
				fmt.Fprintf(os.Stderr, "dipbench: -%s does not apply to the cluster scenario (fixed poisson workload, EDF admission, scripted node failures)\n", f)
				return 2
			}
		}
	}
	if set["slo"] && *slo <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -slo must be a positive deadline in ticks, got %d\n", *slo)
		return 2
	}
	if *tracePath != "" && *workload != "" && *workload != "trace" {
		fmt.Fprintf(os.Stderr, "dipbench: -trace conflicts with -workload %s; use -workload trace\n", *workload)
		return 2
	}
	if *tracePath != "" && *workload == "" {
		*workload = "trace"
	}
	if *workload == "trace" && *tracePath == "" {
		fmt.Fprintln(os.Stderr, "dipbench: -workload trace needs a trace file (-trace path.json|path.csv)")
		return 2
	}
	if set["rate"] && *rate <= 0 {
		fmt.Fprintf(os.Stderr, "dipbench: -rate must be a positive requests/tick, got %v\n", *rate)
		return 2
	}
	if set["rate"] && *workload != "" && *workload != "poisson" {
		fmt.Fprintf(os.Stderr, "dipbench: -rate only shapes the poisson workload, not %q\n", *workload)
		return 2
	}
	if set["slo"] && *workload == "trace" {
		fmt.Fprintln(os.Stderr, "dipbench: -slo does not apply to traces — deadlines come from the file's deadline_ticks column")
		return 2
	}
	if *csvOut && *outDir == "" {
		fmt.Fprintln(os.Stderr, "dipbench: -csv writes <out>/<table>.csv files; add -out DIR")
		return 2
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "dipbench: -exp required (try -list)")
		return 2
	}
	sc, ok := model.ParseScale(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "dipbench: unknown scale %q\n", *scale)
		return 2
	}
	if *procs > 0 {
		parallel.SetProcs(*procs)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	lab := experiments.NewLab(sc)
	lab.CheckpointDir = *ckpt
	lab.ServeSeed = *seed
	lab.ServeSmoke = *small
	lab.ServeWorkload = *workload
	lab.ServeSched = *sched
	lab.ServePreempt = *preempt
	lab.ServeArb = *arb
	lab.ServeRate = *rate
	lab.ServeSLO = *slo
	lab.ServeTrace = *tracePath
	lab.ServeFuse = *fuse
	lab.ServeFaults = *faultRate
	lab.ServeRetry = *retry
	lab.ServeShed = *shed
	lab.ServeEvents = *events
	lab.ServeEventsFormat = *eventsFmt
	lab.ServeObsWindow = *obsWindow
	lab.ServeNodes = *nodes
	lab.ServeRouter = *router
	lab.ServeDrainTick = *drainTick
	lab.ServeNodeChaos = *nodeChaos
	lab.ServeDetectMiss = *detectMiss
	lab.ServeRecoverTicks = *recoverT
	if *verbose {
		lab.Log = os.Stderr
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	report := benchReport{Scale: *scale, Procs: parallel.Procs()}
	for _, id := range ids {
		start := time.Now() //lint:allow wallclock ns/op benchmark annotation; the tables themselves are tick-clocked
		tables, err := experiments.Run(lab, id)
		if err != nil {
			return fail("%s: %v", id, err)
		}
		elapsed := time.Since(start) //lint:allow wallclock ns/op benchmark annotation; the tables themselves are tick-clocked
		res := benchResult{ID: id, NS: elapsed.Nanoseconds()}
		var sink *os.File
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return fail("%v", err)
			}
			f, err := os.Create(filepath.Join(*outDir, id+".txt"))
			if err != nil {
				return fail("%v", err)
			}
			sink = f
		}
		for _, tab := range tables {
			tab.Render(os.Stdout)
			if sink != nil {
				tab.Render(sink)
			}
			if *csvOut {
				if err := writeCSV(filepath.Join(*outDir, tab.ID+".csv"), tab); err != nil {
					sink.Close()
					return fail("%v", err)
				}
			}
			bt := benchTable{ID: tab.ID, Rows: len(tab.Rows)}
			if len(tab.Rows) > 0 {
				last := tab.Rows[len(tab.Rows)-1]
				bt.HeadlineRow = make(map[string]string, len(tab.Columns))
				for ci, col := range tab.Columns {
					if ci < len(last) {
						bt.HeadlineRow[col] = last[ci]
					}
				}
			}
			res.Tables = append(res.Tables, bt)
		}
		if sink != nil {
			if err := sink.Close(); err != nil {
				return fail("%v", err)
			}
		}
		report.Results = append(report.Results, res)
		fmt.Fprintf(os.Stderr, "dipbench: %s done in %v\n", id, elapsed.Round(time.Millisecond))
	}
	if err := writeReport(&report, *jsonPath, *outDir); err != nil {
		return fail("results json: %v", err)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail("memprofile: %v", err)
		}
		f.Close()
	}
	return 0
}

// writeCSV writes one table's CSV file; a render or close error fails the
// run rather than leaving a truncated artifact behind a zero exit.
func writeCSV(path string, tab *experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tab.RenderCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// writeReport emits BENCH_results.json. An explicit -json path wins; with
// -out set the report lands beside the per-experiment files; otherwise it
// goes to the working directory.
func writeReport(report *benchReport, jsonPath, outDir string) error {
	if jsonPath == "none" {
		return nil
	}
	path := jsonPath
	if path == "" {
		path = "BENCH_results.json"
		if outDir != "" {
			path = filepath.Join(outDir, "BENCH_results.json")
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dipbench: wrote %s\n", path)
	return nil
}
