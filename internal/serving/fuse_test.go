package serving

import (
	"reflect"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sparsity"
)

// runFuse runs one K-session DIP-CA workload with the fused path on or off.
func runFuse(t *testing.T, arb ArbPolicy, seed uint64, noFuse bool) *Report {
	t.Helper()
	const k = 5
	reqs := requests(t, k,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(i int) int { return 2 + i%3 })
	e, err := NewEngine(zoo.m, Config{
		System: sysCfg(), Arb: arb, MaxActive: 3, Quantum: 4, Seed: seed, NoFuse: noFuse,
	}, FixedBatch(reqs))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// stripWall zeroes the host annotation, the one Report block excluded from
// the determinism contract.
func stripWall(r *Report) *Report {
	r.Wall = WallClock{}
	return r
}

// The tentpole acceptance test: the fused multi-RHS path must reproduce
// the per-session path bit for bit — the whole Report, every session, every
// cache statistic — across arbitration policies, seeds, and worker counts
// (run under -race this also proves the fused step phase never races the
// shared-cache commits).
func TestFusedEngineMatchesPerSessionEngineBitForBit(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	for _, arb := range Policies() {
		for _, seed := range []uint64{3, 17} {
			parallel.SetProcs(4)
			fused := stripWall(runFuse(t, arb, seed, false))
			unfused := stripWall(runFuse(t, arb, seed, true))
			if !reflect.DeepEqual(fused, unfused) {
				t.Fatalf("arb=%v seed=%d: fused and per-session reports diverged:\nfused   %+v\nunfused %+v",
					arb, seed, fused, unfused)
			}
			parallel.SetProcs(1)
			serialFused := stripWall(runFuse(t, arb, seed, false))
			if !reflect.DeepEqual(fused, serialFused) {
				t.Fatalf("arb=%v seed=%d: fused report depends on worker count", arb, seed)
			}
		}
	}
}

// The fused tick's steady-state allocations: everything engine-side is
// reused across ticks, so the only per-tick allocations are the KV-cache
// entries every decoder inherently appends (two per layer per stream per
// token) plus whatever the cache simulator's eviction bookkeeping needs.
// The budget below is deliberately tight — a regression that reintroduces
// per-tick scratch (per-step logits, attention scores, batch tables) blows
// straight past it.
func TestFusedTickSteadyStateAllocations(t *testing.T) {
	trained(t)
	const k, quantum = 4, 4
	reqs := requests(t, k,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(int) int { return 6 }) // long enough to stay active throughout
	e, err := NewEngine(zoo.m, Config{
		System: sysCfg(), Arb: ArbShared, MaxActive: k, Quantum: quantum, Seed: 1,
	}, FixedBatch(reqs))
	if err != nil {
		t.Fatal(err)
	}
	active := make([]*Session, 0, k)
	for i := range reqs {
		qe := &QueueEntry{Req: e.reqs[i], Index: i, ArriveTick: 0, Order: i, Deadline: NoDeadline}
		sess, err := e.admit(qe, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		active = append(active, sess)
	}
	for i := 0; i < 3; i++ { // warm the arenas and KV capacity
		e.tick(active)
	}
	allocs := testing.AllocsPerRun(5, func() { e.tick(active) })
	layers := len(zoo.m.Blocks)
	kvBudget := float64(quantum * k * layers * 2)
	// Slack covers KV slice regrowth, sparse-gather regrowth, and
	// cache-policy bookkeeping; it is far below the per-step scratch the
	// unfused path allocates (pinned by the relative check below).
	budget := kvBudget * 2.5
	if allocs > budget {
		t.Fatalf("fused steady-state tick allocates %.0f objects, budget %.0f (KV floor %.0f)",
			allocs, budget, kvBudget)
	}
	for _, s := range active {
		if s.stream.Done() {
			t.Fatal("measurement ran off the end of a stream; lengthen the requests")
		}
	}

	// The same workload through the unfused tick must allocate several times
	// more — the fusion satellite's whole point is that batch/slot scratch
	// is reused across ticks instead of reallocated per session step.
	e2, err := NewEngine(zoo.m, Config{
		System: sysCfg(), Arb: ArbShared, MaxActive: k, Quantum: quantum, Seed: 1, NoFuse: true,
	}, FixedBatch(requests(t, k,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(int) int { return 6 })))
	if err != nil {
		t.Fatal(err)
	}
	active2 := make([]*Session, 0, k)
	for i := range e2.reqs {
		qe := &QueueEntry{Req: e2.reqs[i], Index: i, ArriveTick: 0, Order: i, Deadline: NoDeadline}
		sess, err := e2.admit(qe, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		active2 = append(active2, sess)
	}
	for i := 0; i < 3; i++ {
		e2.tick(active2)
	}
	unfused := testing.AllocsPerRun(5, func() { e2.tick(active2) })
	if allocs*2 > unfused {
		t.Fatalf("fused tick allocates %.0f objects, unfused %.0f — fusion no longer pays its way", allocs, unfused)
	}
}
