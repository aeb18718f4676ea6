package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// gridQuantum is the token quantum every serving grid decodes with.
const gridQuantum = 8

// servingGrid is the scenario the serve, chaos and cluster grids share: k
// sessions of the trained phi3med-sim analog, each decoding its own slice
// of the test split on an A18-class device with an LFU cache.
type servingGrid struct {
	l    *Lab
	id   string // the experiment id, prefixed to cell errors
	m    *model.Model
	toks []int
	win  int
	sys  eval.SystemConfig
	// k sessions of sessTokens plus up to two windows each. svcTicks bounds
	// one session's pure decode time (the longest stream at gridQuantum
	// tokens per tick); arrival rates, think times, deadlines and scripted
	// lifecycle ticks are expressed in these service units so each scenario
	// scales with -scale and -small.
	k, sessTokens, svcTicks int
	// deadline is the interactive class's budget in ticks.
	deadline int
}

// newServingGrid sizes a grid of k sessions (kPaper at paper scale, kSmoke
// under -small) served by capacity concurrent slots. The interactive
// deadline is -slo or, by default, generous: max(k/capacity, 1) waves of
// queueing plus two service times.
func newServingGrid(l *Lab, id string, k, kPaper, kSmoke, capacity int) *servingGrid {
	win := l.EvalWin()
	g := &servingGrid{
		l: l, id: id, m: l.Model(model.Phi3MedSim), toks: l.TestTokens(0), win: win, k: k,
		sys:        eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: win},
		sessTokens: l.evalTokens() / 4,
	}
	if l.Scale == model.ScalePaper {
		g.k = kPaper
	}
	if l.ServeSmoke {
		g.k, g.sessTokens = kSmoke, 2*win
	}
	g.svcTicks = (g.sessTokens + 2*win + gridQuantum - 1) / gridQuantum
	g.deadline = l.ServeSLO
	if g.deadline <= 0 {
		g.deadline = (max(g.k/capacity, 1) + 2) * g.svcTicks
	}
	return g
}

// requests builds the grid's k requests, named by id. Lengths vary by up
// to two windows so slots free at different ticks and continuous batching
// has something to backfill. Even submissions are interactive (priority 2,
// deadlined), odd ones batch (best effort).
func (g *servingGrid) requests(scheme sparsity.Scheme, id func(i int) string) []serving.Request {
	reqs := make([]serving.Request, g.k)
	for i := range reqs {
		n := g.sessTokens + (i%3)*g.win
		start := 0
		if len(g.toks) > n {
			start = (i * 997) % (len(g.toks) - n)
		}
		slo := serving.SLO{Class: "batch"}
		if i%2 == 0 {
			slo = serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: g.deadline}
		}
		reqs[i] = serving.Request{ID: id(i), Scheme: scheme, Tokens: g.toks[start : start+n], SLO: slo}
	}
	return reqs
}

// poisson replays reqs as the seeded open-loop Poisson trace, at -rate or
// by default at the aggregate service rate of capacity slots: enough load
// to form queues without unbounded backlog.
func (g *servingGrid) poisson(reqs []serving.Request, capacity int) (serving.Workload, error) {
	rate := g.l.ServeRate
	if rate <= 0 {
		rate = float64(capacity) / float64(g.svcTicks)
	}
	return serving.PoissonArrivals(reqs, rate, g.l.ServeSeed+1)
}

// config is the engine configuration every grid cell starts from.
func (g *servingGrid) config(arb serving.ArbPolicy, sched serving.Scheduler, slots int) serving.Config {
	return serving.Config{
		System: g.sys, Arb: arb, Sched: sched,
		MaxActive: slots, Quantum: gridQuantum, Seed: g.l.ServeSeed,
	}
}

// runEngine builds and runs one engine cell with a fresh event recorder
// (recorders are single-run) and reconciles the report against its event
// log, whether or not -events exports it.
func (g *servingGrid) runEngine(cell string, cfg serving.Config, w serving.Workload) (*serving.Report, []obs.Event, error) {
	rec := obs.NewRecorder(obs.Config{Window: g.l.ServeObsWindow})
	cfg.Obs = rec
	e, err := serving.NewEngine(g.m, cfg, w)
	if err != nil {
		return nil, nil, err
	}
	rep, err := e.Run()
	if err != nil {
		return nil, nil, err
	}
	if err := rep.ReconcileObs(); err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %w", g.id, cell, err)
	}
	return rep, rec.Events(), nil
}

// fuseMode resolves -fuse: "on" (the default) decodes through the fused
// multi-RHS step, "off" per session, and "both" runs each cell on both
// paths under the fused-vs-per-session differential.
func (l *Lab) fuseMode(id string) (string, error) {
	switch l.ServeFuse {
	case "", "on":
		return "on", nil
	case "off", "both":
		return l.ServeFuse, nil
	}
	return "", fmt.Errorf("%s: unknown -fuse mode %q (on|off|both)", id, l.ServeFuse)
}

// fuseColumns are a grid's trailing columns: the decode path, then the
// wall annotation(s) the determinism checks strip.
func fuseColumns(fuse string) []string {
	if fuse == "both" {
		return []string{"fused", "wall_tok_s", "wall_unfused_tok_s"}
	}
	return []string{"fused", "wall_tok_s"}
}

// fuseCells fills fuseColumns for one row.
func fuseCells(fuse string, wall, unfusedWall serving.WallClock) []any {
	if fuse == "both" {
		return []any{fuse, wall.TokS, unfusedWall.TokS}
	}
	return []any{fuse, wall.TokS}
}

// gridCell runs one grid cell on the decode path fuse selects and, under
// "both", once more per session, held to the fused-vs-per-session
// differential (split separates a report's simulated state from its wall
// annotation; it may be nil otherwise). It exports the primary run's event
// log as <-events>-<cell> and returns its report with the per-session
// run's wall (zero unless fuse is "both").
func gridCell[R any](g *servingGrid, fuse, cell string, run func(noFuse bool) (R, []obs.Event, error),
	split func(R) (any, serving.WallClock)) (rep R, unfusedWall serving.WallClock, err error) {
	rep, events, err := run(fuse == "off")
	if err != nil {
		return rep, unfusedWall, err
	}
	if fuse == "both" {
		unfused, uevents, err := run(true)
		if err != nil {
			return rep, unfusedWall, err
		}
		sim, _ := split(rep)
		usim, uw := split(unfused)
		if err := fuseDiff(g.id+": "+cell, sim, usim, events, uevents); err != nil {
			return rep, unfusedWall, err
		}
		unfusedWall = uw
	}
	return rep, unfusedWall, g.l.writeCellEventLog(cell, events)
}

// fuseDiff is the fused path's whole contract: apart from the wall
// annotation the two paths' reports are bit-identical, and so are their
// event logs, byte for byte.
func fuseDiff(what string, sim, usim any, events, uevents []obs.Event) error {
	if !reflect.DeepEqual(sim, usim) {
		return fmt.Errorf("%s: fused report diverged from the per-session path", what)
	}
	var fb, ub bytes.Buffer
	if err := obs.WriteJSONL(&fb, events); err != nil {
		return err
	}
	if err := obs.WriteJSONL(&ub, uevents); err != nil {
		return err
	}
	if !bytes.Equal(fb.Bytes(), ub.Bytes()) {
		return fmt.Errorf("%s: event log diverged between fused and per-session paths", what)
	}
	return nil
}

// splitWall separates an engine report's simulated state from its wall
// annotation.
func splitWall(r *serving.Report) (any, serving.WallClock) { return withoutWall(r), r.Wall }

// withoutWall copies an engine report with its wall annotation zeroed.
func withoutWall(r *serving.Report) *serving.Report {
	sim := *r
	sim.Wall = serving.WallClock{}
	return &sim
}

// splitClusterWall separates a cluster report's simulated state from its
// wall annotations (the cluster's and every node's).
func splitClusterWall(r *cluster.Report) (any, serving.WallClock) {
	sim := *r
	sim.Wall = serving.WallClock{}
	sim.Nodes = append([]cluster.NodeReport(nil), r.Nodes...)
	for i := range sim.Nodes {
		sim.Nodes[i].Report = withoutWall(r.Nodes[i].Report)
	}
	return &sim, r.Wall
}

// obsTracing reports whether the lab's flags ask for the serve grid's
// telemetry columns and per-cell event-log notes (every cell records
// events regardless, to reconcile its report).
func (l *Lab) obsTracing() bool { return l.ServeEvents != "" || l.ServeObsWindow > 0 }

// writeCellEventLog exports one cell's event log to
// <ServeEvents>-<cell>.<ext>, creating parent directories as needed. An
// unset -events prefix is a no-op.
func (l *Lab) writeCellEventLog(cell string, events []obs.Event) error {
	if l.ServeEvents == "" {
		return nil
	}
	format := obs.FormatJSONL
	if l.ServeEventsFormat != "" {
		f, err := obs.ParseFormat(l.ServeEventsFormat)
		if err != nil {
			return err
		}
		format = f
	}
	path := fmt.Sprintf("%s-%s%s", l.ServeEvents, cell, obs.FormatExt(format))
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Export(f, format, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
