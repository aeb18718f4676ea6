package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/serving"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// zoo holds one trained tiny model shared across the package's tests —
// the same recipe the serving tests use (those helpers are
// package-internal).
var zoo struct {
	m      *model.Model
	tokens []int
}

func trained(t *testing.T) {
	t.Helper()
	if zoo.m != nil {
		return
	}
	tok := data.NewTokenizer()
	splits := data.NewSplits(73, 14000, 6000)
	cfg := model.Config{
		Name: model.Mistral7BSim, Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 29)
	opts := model.DefaultTrainOpts()
	opts.Steps = 100
	opts.Batch = 2
	opts.SeqLen = 31
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		t.Fatal(err)
	}
	zoo.m = m
	zoo.tokens = tok.Encode(splits.Test)
}

func sysCfg() eval.SystemConfig {
	return eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
}

// requests builds n DIP-CA sessions with tenant-prefixed IDs ("<tenant>/sNN")
// over distinct slices of the test split.
func requests(t *testing.T, n int, tenant func(i int) string, wins func(i int) int, slo func(i int) serving.SLO) []serving.Request {
	t.Helper()
	reqs := make([]serving.Request, n)
	for i := range reqs {
		lo, hi := i*256, i*256+wins(i)*32
		if hi > len(zoo.tokens) {
			t.Fatalf("test split too short for session %d (%d > %d)", i, hi, len(zoo.tokens))
		}
		reqs[i] = serving.Request{
			ID:     fmt.Sprintf("%s/s%02d", tenant(i), i),
			Scheme: sparsity.NewDIPCA(0.5, 0.2),
			Tokens: zoo.tokens[lo:hi],
			SLO:    slo(i),
		}
	}
	return reqs
}

func nodeCfg(arb serving.ArbPolicy, slots int, noFuse bool) serving.Config {
	return serving.Config{
		System: sysCfg(), Arb: arb, Sched: serving.EDF(),
		MaxActive: slots, Quantum: 4, Seed: 11, NoFuse: noFuse,
	}
}

func TestRouterNamesRoundTripThroughParser(t *testing.T) {
	for _, name := range RouterNames() {
		r, err := ParseRouter(name)
		if err != nil || r.Name() != name {
			t.Errorf("router %q does not round-trip: %v", name, err)
		}
	}
	if _, err := ParseRouter("nope"); err == nil || !strings.Contains(err.Error(), "least-loaded") {
		t.Errorf("unknown router error does not list known names: %v", err)
	}
}

// The SLO-aware router must keep the reserved node (lowest routable index)
// free of deadline-less work while deadlined requests may use any node.
func TestSLOAwareReservesCapacityForDeadlinedClasses(t *testing.T) {
	r := SLOAware()
	loads := []Load{{Queued: 0, Active: 0, Slots: 2}, {Queued: 5, Active: 2, Slots: 2}, {Queued: 6, Active: 2, Slots: 2}}
	cand := []int{0, 1, 2}
	batch := serving.Request{ID: "t/b", SLO: serving.SLO{Class: "batch"}}
	if got := r.Route(batch, cand, loads); got == 0 {
		t.Fatalf("batch request landed on the reserved node 0")
	}
	interactive := serving.Request{ID: "t/i", SLO: serving.SLO{Class: "interactive", DeadlineTicks: 8}}
	if got := r.Route(interactive, cand, loads); got != 0 {
		t.Fatalf("deadlined request routed to %d, want the idle reserved node 0", got)
	}
	// With one candidate left the reservation vanishes.
	if got := r.Route(batch, []int{2}, loads); got != 2 {
		t.Fatalf("sole-candidate routing returned %d, want 2", got)
	}
}

// Consistent-hash routing is session-affine: every session of one tenant
// lands on the same node while candidates are stable, and removing a node
// only remaps the keys it owned.
func TestConsistentHashIsTenantAffineAndStableUnderNodeLoss(t *testing.T) {
	r := ConsistentHash()
	loads := make([]Load, 4)
	all := []int{0, 1, 2, 3}
	home := r.Route(serving.Request{ID: "hot/s00"}, all, loads)
	for i := 1; i < 8; i++ {
		req := serving.Request{ID: fmt.Sprintf("hot/s%02d", i)}
		if got := r.Route(req, all, loads); got != home {
			t.Fatalf("tenant hot split across nodes %d and %d", home, got)
		}
	}
	// Remove a node the tenant does not live on: placement must not move.
	survivors := make([]int, 0, 3)
	removed := (home + 1) % 4
	for _, n := range all {
		if n != removed {
			survivors = append(survivors, n)
		}
	}
	if got := r.Route(serving.Request{ID: "hot/s00"}, survivors, loads); got != home {
		t.Fatalf("removing unrelated node %d moved tenant hot from %d to %d", removed, home, got)
	}
}

// clusterGrid runs the drain+failover scenario used by the determinism
// test: three heterogeneous nodes (different arbitration and batch
// widths), a mid-run failure on node 1, a later drain of node 2, Poisson
// arrivals, tracing on.
func clusterGrid(t *testing.T, router Router, noFuse bool) (*Report, []obs.Event) {
	t.Helper()
	reqs := requests(t, 8,
		func(i int) string {
			if i%3 == 0 {
				return "hot"
			}
			return fmt.Sprintf("t%d", i%3)
		},
		func(i int) int { return 2 + i%2 },
		func(i int) serving.SLO {
			if i%2 == 0 {
				return serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 64}
			}
			return serving.SLO{Class: "batch"}
		})
	w, err := serving.PoissonArrivals(reqs, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Nodes: []serving.Config{
			nodeCfg(serving.ArbExclusive, 2, noFuse),
			nodeCfg(serving.ArbFairShare, 1, noFuse),
			nodeCfg(serving.ArbExclusive, 1, noFuse),
		},
		Router: router, Seed: 19,
		DrainTick: 9, DrainNode: 2,
		Failures: []Failure{{Node: 1, Tick: 5, Ticks: 12}},
		Obs:      &obs.Config{Window: 8},
	}
	c, err := New(zoo.m, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ReconcileObs(); err != nil {
		t.Fatal(err)
	}
	return rep, c.Events()
}

// stripWall zeroes the host-measured annotations — the only fields outside
// the determinism contract.
func stripWall(rep *Report) {
	rep.Wall = serving.WallClock{}
	for i := range rep.Nodes {
		rep.Nodes[i].Report.Wall = serving.WallClock{}
	}
}

// The acceptance pin: the whole cluster — rolled-up report, per-node
// reports, and the merged per-node event logs — must be bit-identical
// across worker counts and the fused/unfused decode paths, for every
// router policy, through a run that exercises failover migration AND an
// administrative drain. Run under -race this also proves the parallel
// node fan-out never races.
func TestClusterDeterministicAcrossWorkerCountsAndFuse(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	for _, name := range RouterNames() {
		router, err := ParseRouter(name)
		if err != nil {
			t.Fatal(err)
		}
		var baseRep *Report
		var baseLog []byte
		for _, noFuse := range []bool{false, true} {
			for _, procs := range []int{4, 1} {
				parallel.SetProcs(procs)
				rep, events := clusterGrid(t, router, noFuse)
				stripWall(rep)
				if rep.Migrations == 0 {
					t.Fatalf("router %s: failover scenario produced no migrations", name)
				}
				if rep.Drains != 1 || rep.Failures != 1 {
					t.Fatalf("router %s: lifecycle ran %d drains / %d failures, want 1/1", name, rep.Drains, rep.Failures)
				}
				var buf bytes.Buffer
				if err := obs.WriteJSONL(&buf, events); err != nil {
					t.Fatal(err)
				}
				if baseRep == nil {
					baseRep, baseLog = rep, buf.Bytes()
					continue
				}
				if !reflect.DeepEqual(baseRep, rep) {
					t.Fatalf("router %s: report diverges at noFuse=%v procs=%d", name, noFuse, procs)
				}
				if !bytes.Equal(baseLog, buf.Bytes()) {
					t.Fatalf("router %s: merged event log diverges at noFuse=%v procs=%d", name, noFuse, procs)
				}
			}
		}
	}
}

// The cluster analogue of TestPreemptedSessionMatchesUninterruptedSolo:
// an exclusive-arbitration session evacuated off a failing node mid-decode
// migrates — its live stream and private cache carried through
// Release/Regrant — and must still reproduce an uninterrupted solo
// SystemEvaluate bit for bit. DIP-CA is the hard case: its masks read the
// session's cache state every token, so any loss of cache state across
// the node hop would change the output.
func TestClusterMigratedExclusiveSessionMatchesUninterruptedSolo(t *testing.T) {
	trained(t)
	reqs := requests(t, 2,
		func(i int) string { return "solo" },
		func(i int) int { return 3 },
		func(i int) serving.SLO { return serving.SLO{} })
	cfg := Config{
		Nodes: []serving.Config{
			nodeCfg(serving.ArbExclusive, 1, false),
			nodeCfg(serving.ArbExclusive, 1, false),
		},
		Router: LeastLoaded(), Seed: 5,
		// Node 1 fails at tick 2 — mid-decode for whichever session it
		// holds (each stream needs ~24 ticks) — and stays down for good.
		Failures: []Failure{{Node: 1, Tick: 2, Ticks: 1000}},
	}
	c, err := New(zoo.m, cfg, serving.FixedBatch(reqs))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 1 {
		t.Fatalf("expected exactly one migrated session, got %d", rep.Migrations)
	}
	if rep.MigratedWaitTicks <= 0 {
		t.Fatalf("migrated session shows no cross-node queueing (wait %d ticks)", rep.MigratedWaitTicks)
	}
	seen := 0
	for _, nr := range rep.Nodes {
		for _, sm := range nr.Report.Sessions {
			seen++
			if sm.Outcome != serving.OutcomeOK {
				t.Fatalf("session %q finished %q, want ok", sm.ID, sm.Outcome)
			}
			solo, err := eval.SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), reqs[sm.Index].Tokens, sysCfg())
			if err != nil {
				t.Fatal(err)
			}
			if sm.Point != solo {
				t.Fatalf("session %q diverged from solo evaluation:\nserved %+v\nsolo   %+v", sm.ID, sm.Point, solo)
			}
		}
	}
	if seen != len(reqs) {
		t.Fatalf("%d sessions reported across nodes, want %d", seen, len(reqs))
	}
	// Both sessions must have ended up on the surviving node.
	if n := len(rep.Nodes[0].Report.Sessions); n != 2 {
		t.Fatalf("surviving node reports %d sessions, want 2 (the migrant included)", n)
	}
}

// The routing headline, pinned: on a skewed tenant mix (every session one
// tenant) consistent-hash serializes the whole load on the tenant's home
// node while least-loaded spreads it, so least-loaded must strictly win
// SLO attainment. The deadline is tuned so two sessions per node attain
// and a six-deep serial queue misses from the third on.
func TestLeastLoadedBeatsConsistentHashOnSkewedTenants(t *testing.T) {
	trained(t)
	run := func(router Router) *Report {
		reqs := requests(t, 6,
			func(i int) string { return "hot" },
			func(i int) int { return 2 },
			func(i int) serving.SLO {
				return serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 20}
			})
		cfg := Config{
			Nodes: []serving.Config{
				nodeCfg(serving.ArbExclusive, 1, false),
				nodeCfg(serving.ArbExclusive, 1, false),
				nodeCfg(serving.ArbExclusive, 1, false),
			},
			Router: router, Seed: 5,
		}
		c, err := New(zoo.m, cfg, serving.FixedBatch(reqs))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	hash := run(ConsistentHash())
	ll := run(LeastLoaded())
	if placed := len(hash.Placements); placed != 3 {
		t.Fatalf("placement vector has %d entries, want 3", placed)
	}
	if hash.Imbalance != 3 {
		t.Fatalf("hash routing imbalance = %v, want 3 (whole tenant on one node)", hash.Imbalance)
	}
	if ll.Imbalance != 1 {
		t.Fatalf("least-loaded imbalance = %v, want 1 (perfect spread)", ll.Imbalance)
	}
	if ll.SLOAttainRate <= hash.SLOAttainRate {
		t.Fatalf("least-loaded attainment %v does not beat consistent-hash %v on the skewed trace",
			ll.SLOAttainRate, hash.SLOAttainRate)
	}
}

// Draining must stop placements onto the node, migrate its queue, and let
// its active session finish locally — with every session still served
// exactly once across the cluster.
func TestDrainStopsPlacementAndMigratesQueue(t *testing.T) {
	trained(t)
	reqs := requests(t, 4,
		func(i int) string { return fmt.Sprintf("t%d", i) },
		func(i int) int { return 2 },
		func(i int) serving.SLO { return serving.SLO{} })
	cfg := Config{
		Nodes: []serving.Config{
			nodeCfg(serving.ArbExclusive, 1, false),
			nodeCfg(serving.ArbExclusive, 1, false),
		},
		Router: LeastLoaded(), Seed: 5,
		DrainTick: 1, DrainNode: 1,
	}
	c, err := New(zoo.m, cfg, serving.FixedBatch(reqs))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drains != 1 || !rep.Nodes[1].Drained {
		t.Fatalf("drain not recorded: drains=%d node1.Drained=%v", rep.Drains, rep.Nodes[1].Drained)
	}
	// Four sessions landed 2/2 at tick 0; the drain at tick 1 moved node
	// 1's queued entry to node 0, so node 1 finishes only the session it
	// was actively decoding.
	if n0, n1 := len(rep.Nodes[0].Report.Sessions), len(rep.Nodes[1].Report.Sessions); n0 != 3 || n1 != 1 {
		t.Fatalf("sessions split %d/%d across nodes, want 3/1 after the drain migration", n0, n1)
	}
	if rep.Sessions != 4 {
		t.Fatalf("cluster reports %d sessions, want 4", rep.Sessions)
	}
	for _, nr := range rep.Nodes {
		for _, sm := range nr.Report.Sessions {
			if sm.Outcome != serving.OutcomeOK {
				t.Fatalf("session %q finished %q, want ok", sm.ID, sm.Outcome)
			}
		}
	}
	if rep.Nodes[1].Placements != 2 {
		t.Fatalf("node 1 credited %d placements, want the 2 made before the drain", rep.Nodes[1].Placements)
	}
}
