package cache

// scanCache is the victim-scan cache that the heap replaced, kept as the
// oracle for the heap: every policy's victim is found by scanning all units
// for the resident, not-in-flight unit with the smallest stamp or count (or
// the farthest next use), lowest index first. It steps one accessed unit at
// a time so that a test can compare the two caches' victims at every miss.
type scanCache struct {
	policy   Policy
	capacity int
	nunits   int
	resident []bool
	count    int

	clock    int64
	lastUse  []int64 // LRU last use; FIFO insertion stamp
	freq     []int64 // LFU, LFU-aged
	inflight []int64 // inflight[u] == clock marks u as part of this access

	future  [][]int32
	cursor  []int
	syncPos int

	stats Stats
}

func newScanCache(policy Policy, capacity, nunits int) *scanCache {
	capacity = max(0, min(capacity, nunits))
	if policy == PolicyNone {
		capacity = 0
	}
	return &scanCache{
		policy:   policy,
		capacity: capacity,
		nunits:   nunits,
		resident: make([]bool, nunits),
		lastUse:  make([]int64, nunits),
		freq:     make([]int64, nunits),
		inflight: make([]int64, nunits),
	}
}

func (s *scanCache) setTrace(stream [][]int) {
	s.future = make([][]int32, s.nunits)
	for pos, units := range stream {
		for _, u := range units {
			s.future[u] = append(s.future[u], int32(pos))
		}
	}
	s.cursor = make([]int, s.nunits)
}

func (s *scanCache) nextUse(u int) int32 {
	const never = 1 << 30
	f, c := s.future[u], s.cursor[u]
	for c < len(f) && int(f[c]) <= s.syncPos {
		c++
	}
	s.cursor[u] = c
	if c == len(f) {
		return never
	}
	return f[c]
}

// begin opens a sparse access to units.
func (s *scanCache) begin(units []int) {
	s.clock++
	if s.policy == PolicyLFUAged && s.clock%AgingPeriod == 0 {
		for i := range s.freq {
			s.freq[i] /= 2
		}
	}
	for _, u := range units {
		s.inflight[u] = s.clock
	}
}

// touch applies one accessed unit and reports whether it hit.
func (s *scanCache) touch(u int) bool {
	s.freq[u]++
	if s.policy != PolicyFIFO {
		s.lastUse[u] = s.clock
	}
	if s.resident[u] {
		s.stats.Hits++
		return true
	}
	s.stats.Misses++
	if s.count < s.capacity {
		s.resident[u] = true
		s.count++
		s.noteInsert(u)
		return false
	}
	victim := s.pickVictim()
	if victim < 0 {
		return false
	}
	if s.policy == PolicyBelady && s.nextUse(u) >= s.nextUse(victim) {
		return false
	}
	s.resident[victim] = false
	s.resident[u] = true
	s.noteInsert(u)
	s.stats.Evictions++
	return false
}

func (s *scanCache) noteInsert(u int) {
	if s.policy == PolicyFIFO {
		s.lastUse[u] = s.clock
	}
}

func (s *scanCache) end() {
	if s.policy == PolicyBelady {
		s.syncPos++
	}
}

// pickVictim returns the resident unit to evict, or -1 when every resident
// unit is in the current access set.
func (s *scanCache) pickVictim() int {
	inFlight := func(v int) bool { return s.inflight[v] == s.clock }
	best := -1
	switch s.policy {
	case PolicyLRU, PolicyFIFO:
		var bestUse int64 = 1<<62 - 1
		for v := 0; v < s.nunits; v++ {
			if s.resident[v] && !inFlight(v) && s.lastUse[v] < bestUse {
				best, bestUse = v, s.lastUse[v]
			}
		}
	case PolicyLFU, PolicyLFUAged:
		var bestFreq int64 = 1<<62 - 1
		for v := 0; v < s.nunits; v++ {
			if s.resident[v] && !inFlight(v) && s.freq[v] < bestFreq {
				best, bestFreq = v, s.freq[v]
			}
		}
	case PolicyBelady:
		var bestNext int32 = -1
		for v := 0; v < s.nunits; v++ {
			if s.resident[v] && !inFlight(v) {
				if nu := s.nextUse(v); nu > bestNext {
					best, bestNext = v, nu
				}
			}
		}
	default:
		for v := 0; v < s.nunits; v++ {
			if s.resident[v] && !inFlight(v) {
				return v
			}
		}
	}
	return best
}

// accessDense pins the lowest-index units up to capacity. The scan cache
// this oracle reproduces filled all of units 0..capacity-1, which overfills
// the cache when sparse accesses left higher units resident; the oracle
// fills only up to capacity, which is the same wherever that fill did not
// overflow.
func (s *scanCache) accessDense() (hits, misses int) {
	for u := 0; u < s.nunits && s.count < s.capacity; u++ {
		if !s.resident[u] {
			s.resident[u] = true
			s.count++
		}
	}
	hits, misses = s.count, s.nunits-s.count
	s.stats.Hits += int64(hits)
	s.stats.Misses += int64(misses)
	if s.policy == PolicyBelady {
		s.syncPos++
	}
	return hits, misses
}
