package cache

import (
	"testing"
	"testing/quick"
)

func TestFIFOEvictsOldestInsertion(t *testing.T) {
	g := NewGroupCache(PolicyFIFO, 2, 10)
	g.AccessSparse([]int{1})
	g.AccessSparse([]int{2})
	// Re-touching 1 must NOT refresh its FIFO position.
	g.AccessSparse([]int{1})
	g.AccessSparse([]int{3}) // evicts 1 (oldest insertion), not 2
	if g.Resident(1) || !g.Resident(2) || !g.Resident(3) {
		t.Fatalf("FIFO residency wrong: 1=%v 2=%v 3=%v", g.Resident(1), g.Resident(2), g.Resident(3))
	}
}

func TestFIFODiffersFromLRU(t *testing.T) {
	trace := [][]int{{1}, {2}, {1}, {3}, {1}, {2}}
	run := func(p Policy) (hits int64) {
		g := NewGroupCache(p, 2, 5)
		for _, u := range trace {
			g.AccessSparse(u)
		}
		return g.Stats().Hits
	}
	// On this trace LRU keeps the re-touched unit 1; FIFO evicts it.
	if run(PolicyLRU) <= run(PolicyFIFO) {
		t.Fatalf("expected LRU (%d hits) to beat FIFO (%d hits) on a recency-friendly trace",
			run(PolicyLRU), run(PolicyFIFO))
	}
}

func TestLFUAgedForgetsStalePopularity(t *testing.T) {
	// Unit 0 is hammered early, then never used again; units 1..20 cycle
	// slowly so no single one out-frequencies unit 0's stale count. Plain
	// LFU pins 0 forever; aged LFU decays the stale count and evicts it.
	build := func(p Policy) *GroupCache {
		g := NewGroupCache(p, 2, 25)
		for i := 0; i < 50; i++ {
			g.AccessSparse([]int{0})
		}
		for i := 0; i < 3*AgingPeriod; i++ {
			g.AccessSparse([]int{1 + i%20})
		}
		return g
	}
	plain := build(PolicyLFU)
	aged := build(PolicyLFUAged)
	if !plain.Resident(0) {
		t.Fatal("plain LFU should still pin the stale-hot unit")
	}
	if aged.Resident(0) {
		t.Fatal("aged LFU should have evicted the stale-hot unit")
	}
}

func TestNewPolicyNames(t *testing.T) {
	if PolicyFIFO.String() != "fifo" || PolicyLFUAged.String() != "lfu-aged" {
		t.Fatal("policy names wrong")
	}
}

// Property: for every policy, the resident count never exceeds capacity
// and hits+misses equals the number of accessed units. Belady replays the
// stream it was given as its trace.
func TestCacheInvariants(t *testing.T) {
	policies := []Policy{PolicyNone, PolicyLRU, PolicyLFU, PolicyFIFO, PolicyLFUAged, PolicyBelady}
	f := func(seed uint64) bool {
		state := seed
		next := func(n int) int {
			state = state*6364136223846793005 + 1
			return int((state >> 33) % uint64(n))
		}
		for _, p := range policies {
			cap := next(6)
			stream := make([][]int, 100)
			for step := range stream {
				n := 1 + next(4)
				seen := map[int]bool{}
				for len(stream[step]) < n {
					u := next(12)
					if !seen[u] {
						seen[u] = true
						stream[step] = append(stream[step], u)
					}
				}
			}
			g := NewGroupCache(p, cap, 12)
			if p == PolicyBelady {
				g.SetTrace(stream)
			}
			var accessed int64
			for _, units := range stream {
				h, m := g.AccessSparse(units)
				if h+m != len(units) {
					return false
				}
				accessed += int64(len(units))
				resident := 0
				for u := 0; u < 12; u++ {
					if g.Resident(u) {
						resident++
					}
				}
				if resident > g.Capacity() || resident != g.Occupancy() {
					return false
				}
			}
			st := g.Stats()
			if st.Hits+st.Misses != accessed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Every policy breaks a tie in its eviction key by evicting the lowest
// unit index. Units 8, 4 and 6 enter in one access and are never used
// again, so they tie on stamp, count and next use; unit 1 is used twice
// more, so it ranks above them. The access {2, 0} misses twice on a full
// cache and must evict 4, then 6 — not 8 (highest index first) and not in
// insertion order.
func TestEvictionTiesGoToLowestIndex(t *testing.T) {
	stream := [][]int{{8, 4, 6}, {1}, {1}, {2, 0}, {1}, {2}, {0}}
	for _, p := range []Policy{PolicyLRU, PolicyFIFO, PolicyLFU, PolicyLFUAged, PolicyBelady} {
		t.Run(p.String(), func(t *testing.T) {
			g := NewGroupCache(p, 4, 10)
			if p == PolicyBelady {
				g.SetTrace(stream)
			}
			for _, units := range stream[:4] {
				g.AccessSparse(units)
			}
			for u, want := range []bool{0: true, 1: true, 2: true, 8: true, 9: false} {
				if g.Resident(u) != want {
					t.Errorf("unit %d resident %v, want %v", u, g.Resident(u), want)
				}
			}
			if ev := g.Stats().Evictions; ev != 2 {
				t.Errorf("%d evictions, want 2", ev)
			}
		})
	}
}

// Property: a hit never changes residency; a miss either inserts the unit
// or bypasses, never removes an unrelated non-victim.
func TestLRURecencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		state := seed | 1
		next := func(n int) int {
			state = state*6364136223846793005 + 1
			return int((state >> 33) % uint64(n))
		}
		g := NewGroupCache(PolicyLRU, 3, 10)
		lastTouched := -1
		for step := 0; step < 200; step++ {
			u := next(10)
			g.AccessSparse([]int{u})
			lastTouched = u
			// The most recently touched unit must be resident (capacity>0
			// guarantees insertion or it was already there).
			if !g.Resident(lastTouched) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
