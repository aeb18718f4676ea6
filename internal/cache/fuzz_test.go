package cache

import (
	"fmt"
	"testing"
)

// fuzzPolicies lists every policy a fuzz input can choose.
var fuzzPolicies = []Policy{PolicyNone, PolicyLRU, PolicyLFU, PolicyBelady, PolicyFIFO, PolicyLFUAged}

// victimInput is one decoded fuzz input: a cache shape and an access
// stream in which dense[i] marks step i as an AccessDense.
type victimInput struct {
	policy           Policy
	capacity, nunits int
	stream           [][]int
	dense            []bool
}

// decodeVictimInput reads a cache and a stream from fuzz bytes. The header
// is policy, universe size, capacity (which may fall outside [0, nunits] to
// exercise clamping) and a repeat count; each following byte b opens a step
// that is dense when b%16 == 15 and otherwise accesses the b%16 units named
// by the next bytes (duplicates allowed). The parsed steps are replayed
// repeat times, so short inputs still reach LFU-aged's aging period.
func decodeVictimInput(data []byte) (victimInput, bool) {
	if len(data) < 4 {
		return victimInput{}, false
	}
	in := victimInput{policy: fuzzPolicies[int(data[0])%len(fuzzPolicies)]}
	in.nunits = 1 + int(data[1])%40
	in.capacity = int(data[2])%(in.nunits+3) - 1
	repeat := 1 + int(data[3])%32
	var steps [][]int
	var dense []bool
	for i := 4; i < len(data) && len(steps) < 64; {
		b := data[i]
		i++
		if b%16 == 15 {
			steps, dense = append(steps, nil), append(dense, true)
			continue
		}
		units := []int{}
		for n := int(b % 16); n > 0 && i < len(data); n-- {
			units = append(units, int(data[i])%in.nunits)
			i++
		}
		steps, dense = append(steps, units), append(dense, false)
	}
	for r := 0; r < repeat; r++ {
		in.stream = append(in.stream, steps...)
		in.dense = append(in.dense, dense...)
	}
	return in, true
}

// FuzzGroupCacheVictims replays a fuzz-chosen stream on the heap cache and
// on the scan oracle and requires the same victim at every eviction, the
// same residency and statistics after every step, and the cache invariants:
// resident ≤ capacity, Occupancy equal to a recount, hits + misses equal to
// the units accessed, and a well-formed heap holding every resident unit
// between accesses. A second heap cache driven through the public
// AccessSparse/AccessDense must agree with the unit-stepped one.
func FuzzGroupCacheVictims(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeVictimInput(data)
		if !ok {
			return
		}
		g := NewGroupCache(in.policy, in.capacity, in.nunits)
		twin := NewGroupCache(in.policy, in.capacity, in.nunits)
		ref := newScanCache(in.policy, in.capacity, in.nunits)
		if in.policy == PolicyBelady {
			// The recorded trace holds an empty entry for a dense step, as
			// TraceRecorder writes it.
			trace := make([][]int, len(in.stream))
			for i, units := range in.stream {
				if !in.dense[i] {
					trace[i] = units
				}
			}
			g.SetTrace(trace)
			twin.SetTrace(trace)
			ref.setTrace(trace)
		}
		var accessed int64
		for step, units := range in.stream {
			var h, m, th, tm, rh, rm int
			if in.dense[step] {
				h, m = g.AccessDense()
				th, tm = twin.AccessDense()
				rh, rm = ref.accessDense()
				accessed += int64(in.nunits)
			} else {
				th, tm = twin.AccessSparse(units)
				g.begin(units)
				ref.begin(units)
				for _, u := range units {
					if !g.resident[u] && g.count == g.capacity {
						if got, want := g.victim(), ref.pickVictim(); got != want {
							t.Fatalf("%v step %d unit %d: heap victim %d, scan victim %d", in.policy, step, u, got, want)
						}
					}
					if g.touch(u) {
						h++
					} else {
						m++
					}
					if ref.touch(u) {
						rh++
					} else {
						rm++
					}
				}
				g.end(units)
				ref.end()
				g.stats.Hits += int64(h)
				g.stats.Misses += int64(m)
				accessed += int64(len(units))
			}
			if h != rh || m != rm || th != h || tm != m {
				t.Fatalf("%v step %d: hits/misses heap %d/%d, public %d/%d, scan %d/%d", in.policy, step, h, m, th, tm, rh, rm)
			}
			if err := checkAgainst(g, twin, ref); err != nil {
				t.Fatalf("%v step %d: %v", in.policy, step, err)
			}
			if st := g.Stats(); st.Hits+st.Misses != accessed {
				t.Fatalf("%v step %d: hits+misses %d, accessed %d", in.policy, step, st.Hits+st.Misses, accessed)
			}
		}
	})
}

// checkAgainst compares the unit-stepped heap cache g with the publicly
// driven twin and the scan oracle ref, and checks g's invariants.
func checkAgainst(g, twin *GroupCache, ref *scanCache) error {
	resident := 0
	for u := 0; u < g.nunits; u++ {
		if g.Resident(u) != ref.resident[u] || twin.Resident(u) != g.Resident(u) {
			return fmt.Errorf("unit %d resident: heap %v, public %v, scan %v", u, g.Resident(u), twin.Resident(u), ref.resident[u])
		}
		if g.Resident(u) {
			resident++
		}
	}
	if resident > g.Capacity() || resident != g.Occupancy() {
		return fmt.Errorf("%d resident, Occupancy %d, capacity %d", resident, g.Occupancy(), g.Capacity())
	}
	if g.Stats() != ref.stats || twin.Stats() != ref.stats {
		return fmt.Errorf("stats: heap %+v, public %+v, scan %+v", g.Stats(), twin.Stats(), ref.stats)
	}
	return checkHeap(g)
}

// checkHeap verifies that between accesses g's heap holds exactly the
// resident units, in (key, unit) order, with pos indexing it.
func checkHeap(g *GroupCache) error {
	if len(g.heap) != g.count {
		return fmt.Errorf("heap holds %d units, %d resident", len(g.heap), g.count)
	}
	for i, u := range g.heap {
		if !g.resident[u] || g.pos[u] != int32(i) {
			return fmt.Errorf("heap slot %d: unit %d resident %v pos %d", i, u, g.resident[u], g.pos[u])
		}
		if i > 0 && g.less(i, (i-1)/2) {
			return fmt.Errorf("heap slot %d (unit %d) orders before its parent", i, u)
		}
	}
	inHeap := 0
	for _, p := range g.pos {
		if p >= 0 {
			inHeap++
		}
	}
	if inHeap != len(g.heap) {
		return fmt.Errorf("%d units claim a heap slot, heap holds %d", inHeap, len(g.heap))
	}
	return nil
}
