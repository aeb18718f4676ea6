package cache

import (
	"testing"
)

// driftStream returns tokens accesses of per distinct units each over a
// universe of nunits, shaped like a private serving cache's traffic: three
// quarters of each access fall in a hot window of 900 units that slides 16
// units per token, the rest anywhere. The stream is a fixed function of its
// arguments.
func driftStream(nunits, per, tokens int) [][]int {
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	const window = 900
	stream := make([][]int, tokens)
	seen := make([]int, nunits)
	for t := range stream {
		start := 16 * t
		units := make([]int, 0, per)
		for len(units) < per {
			u := next(nunits)
			if next(4) != 0 {
				u = (start + next(window)) % nunits
			}
			if seen[u] != t+1 {
				seen[u] = t + 1
				units = append(units, u)
			}
		}
		stream[t] = units
	}
	return stream
}

// warmCache returns a cache of policy p over stream's universe that has
// replayed one pass of stream. A Belady cache's trace is stream repeated
// passes times, so the replay may run that many passes in all.
func warmCache(p Policy, capacity, nunits int, stream [][]int, passes int) *GroupCache {
	g := NewGroupCache(p, capacity, nunits)
	if p == PolicyBelady {
		trace := make([][]int, 0, passes*len(stream))
		for i := 0; i < passes; i++ {
			trace = append(trace, stream...)
		}
		g.SetTrace(trace)
	}
	for _, units := range stream {
		g.AccessSparse(units)
	}
	return g
}

var benchPolicies = []Policy{PolicyLRU, PolicyFIFO, PolicyLFU, PolicyLFUAged, PolicyBelady}

// BenchmarkGroupCacheAccess times one token's AccessSparse on a cache sized
// like the serve-cache benchmark's private caches: 2048 units, 30% of them
// resident, 614 units per access with a drifting hot set. Belady, whose
// replay must follow its trace, is rebuilt and re-warmed with the timer
// stopped whenever its trace runs out.
func BenchmarkGroupCacheAccess(b *testing.B) {
	const nunits, capacity, per, tokens, passes = 2048, 614, 614, 256, 4
	stream := driftStream(nunits, per, tokens)
	for _, p := range benchPolicies {
		b.Run(p.String(), func(b *testing.B) {
			g := warmCache(p, capacity, nunits, stream, passes)
			pos := len(stream)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p == PolicyBelady && pos == passes*len(stream) {
					b.StopTimer()
					g = warmCache(p, capacity, nunits, stream, passes)
					pos = len(stream)
					b.StartTimer()
				}
				g.AccessSparse(stream[pos%len(stream)])
				pos++
			}
		})
	}
}

// A warm cache's AccessSparse allocates nothing under any policy: the heap
// is sized to capacity up front.
func TestAccessSparseSteadyStateAllocatesNothing(t *testing.T) {
	const nunits, capacity, per, tokens, runs = 2048, 614, 614, 64, 100
	stream := driftStream(nunits, per, tokens)
	for _, p := range benchPolicies {
		g := warmCache(p, capacity, nunits, stream, 3)
		pos := 0
		allocs := testing.AllocsPerRun(runs, func() {
			g.AccessSparse(stream[pos%len(stream)])
			pos++
		})
		if allocs != 0 {
			t.Errorf("%v: %.1f allocs per AccessSparse, want 0", p, allocs)
		}
	}
}
