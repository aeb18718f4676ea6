// Package cache simulates the DRAM weight cache of Section 5: weights are
// fetched from Flash at neuron/column granularity (the "units" of
// sparsity.GroupID groups), retained in a bounded DRAM budget, and evicted
// by a configurable policy — LRU, LFU, the clairvoyant Belady oracle, or no
// caching at all. The cache exposes the sparsity.CacheView interface so
// DIP-CA can bias its masks toward resident units, and reports hit/miss
// unit counts so the hardware simulator can price each token. Every policy
// keeps its evictable units in one indexed min-heap, so a miss or a hit
// costs O(log capacity) rather than a scan over the group's units.
package cache

import (
	"fmt"

	"repro/internal/sparsity"
)

// Policy selects the eviction strategy.
type Policy int

const (
	// PolicyNone disables caching: every access is a miss.
	PolicyNone Policy = iota
	// PolicyLRU evicts the least recently used unit.
	PolicyLRU
	// PolicyLFU evicts the least frequently used unit (session counts).
	PolicyLFU
	// PolicyBelady evicts the unit whose next use is farthest in the
	// future, using a pre-recorded access trace (Belady, 1966). It is the
	// optimal eviction policy for a fixed access sequence.
	PolicyBelady
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyLRU:
		return "lru"
	case PolicyLFU:
		return "lfu"
	case PolicyBelady:
		return "belady"
	case PolicyFIFO:
		return "fifo"
	case PolicyLFUAged:
		return "lfu-aged"
	default:
		return "invalid"
	}
}

// Stats accumulates cache events in units.
type Stats struct {
	Hits, Misses, Evictions int64
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// GroupCache caches the units of one weight group at one layer.
type GroupCache struct {
	policy   Policy
	capacity int
	nunits   int
	resident []bool
	count    int

	// key[u] orders u for eviction: the resident unit with the smallest
	// (key[u], u) is the victim, so equal keys evict the lowest index. LRU
	// stores the last-use clock stamp, FIFO the insertion stamp, LFU and
	// LFU-aged the use count (kept for non-resident units too), and Belady
	// the negated next use, stamped when u enters the heap.
	clock int64
	key   []int64

	// heap is a binary min-heap over (key, unit) of the resident units
	// that may be evicted, and pos[u] is u's index in it or -1. During an
	// access the accessed units are out of the heap, which is what protects
	// them from eviction; the heap holds at most capacity units.
	heap []int32
	pos  []int32

	// Belady state: for each unit, the (ascending) positions in the access
	// stream where it is used, and a cursor into that list.
	future  [][]int32
	cursor  []int
	syncPos int // current stream position

	stats Stats
}

// NewGroupCache returns a cache over nunits units holding at most capacity
// of them. capacity is clamped to [0, nunits].
func NewGroupCache(policy Policy, capacity, nunits int) *GroupCache {
	if capacity < 0 {
		capacity = 0
	}
	if capacity > nunits {
		capacity = nunits
	}
	if policy == PolicyNone {
		capacity = 0
	}
	pos := make([]int32, nunits)
	for i := range pos {
		pos[i] = -1
	}
	return &GroupCache{
		policy:   policy,
		capacity: capacity,
		nunits:   nunits,
		resident: make([]bool, nunits),
		key:      make([]int64, nunits),
		heap:     make([]int32, 0, capacity),
		pos:      pos,
	}
}

// Capacity returns the unit capacity.
func (g *GroupCache) Capacity() int { return g.capacity }

// Stats returns the accumulated statistics.
func (g *GroupCache) Stats() Stats { return g.stats }

// Resident reports whether unit u is in DRAM.
func (g *GroupCache) Resident(u int) bool { return g.resident[u] }

// Occupancy returns the number of resident units.
func (g *GroupCache) Occupancy() int { return g.count }

// SetTrace installs the future access stream for the Belady policy. Each
// stream element is the sparse unit list of one token's access. It panics
// for other policies.
func (g *GroupCache) SetTrace(stream [][]int) {
	if g.policy != PolicyBelady {
		panic("cache: SetTrace on non-Belady cache")
	}
	g.future = make([][]int32, g.nunits)
	for pos, units := range stream {
		for _, u := range units {
			g.future[u] = append(g.future[u], int32(pos))
		}
	}
	g.cursor = make([]int, g.nunits)
	g.syncPos = 0
}

// nextUse returns the next stream position at which unit u is used strictly
// after the current position, or a sentinel beyond any position.
func (g *GroupCache) nextUse(u int) int32 {
	const never = 1 << 30
	f := g.future[u]
	c := g.cursor[u]
	for c < len(f) && int(f[c]) <= g.syncPos {
		c++
	}
	g.cursor[u] = c
	if c == len(f) {
		return never
	}
	return f[c]
}

// AccessSparse processes one token's access to the listed units, updating
// residency per the policy, and returns the hit and miss unit counts.
func (g *GroupCache) AccessSparse(units []int) (hits, misses int) {
	if g.capacity == 0 {
		g.stats.Misses += int64(len(units))
		return 0, len(units)
	}
	g.begin(units)
	for _, u := range units {
		if g.touch(u) {
			hits++
		} else {
			misses++
		}
	}
	g.end(units)
	g.stats.Hits += int64(hits)
	g.stats.Misses += int64(misses)
	return hits, misses
}

// begin opens a sparse access: it advances the clock, ages LFU-aged counts,
// and takes the accessed units that are resident out of the heap so that
// no miss of this token can evict them.
func (g *GroupCache) begin(units []int) {
	g.clock++
	g.maybeAge()
	for _, u := range units {
		if g.pos[u] >= 0 {
			g.heapRemove(u)
		}
	}
}

// touch applies one accessed unit and reports whether it hit.
func (g *GroupCache) touch(u int) bool {
	switch g.policy {
	case PolicyLRU:
		g.key[u] = g.clock
	case PolicyLFU, PolicyLFUAged:
		g.key[u]++
	}
	if g.resident[u] {
		return true
	}
	g.insert(u)
	return false
}

// end closes a sparse access: every accessed unit that is resident becomes
// evictable again.
func (g *GroupCache) end(units []int) {
	for _, u := range units {
		if g.resident[u] && g.pos[u] < 0 {
			g.heapPush(u)
		}
	}
	if g.policy == PolicyBelady {
		g.syncPos++
	}
}

// insert makes u resident, evicting per policy when full.
func (g *GroupCache) insert(u int) {
	if g.count < g.capacity {
		g.resident[u] = true
		g.count++
		g.noteInsert(u)
		return
	}
	victim := g.victim()
	if victim < 0 {
		// Everything resident is needed this token; bypass the cache for u
		// (the paper's low-density regime where active neurons exceed the
		// cache and are loaded straight to the processing unit).
		return
	}
	if g.policy == PolicyBelady && int64(g.nextUse(u)) >= -g.key[victim] {
		// Optimal-with-bypass: the incoming unit is needed again no sooner
		// than the best victim, so caching it cannot help — stream it to
		// the processing unit and keep the cache contents.
		return
	}
	g.heapRemove(victim)
	g.resident[victim] = false
	g.resident[u] = true
	g.noteInsert(u)
	g.stats.Evictions++
}

// victim returns the resident unit the next miss would evict, or -1 when
// every resident unit is in the current access.
func (g *GroupCache) victim() int {
	if len(g.heap) == 0 {
		return -1
	}
	return int(g.heap[0])
}

// AccessDense processes a token that reads every unit of the group. Dense
// groups behave like statically pinned weights: the first access fills the
// cache to capacity with the lowest-index units and later accesses hit on
// the pinned set — no churn, because evicting under a cyclic full scan can
// never help.
func (g *GroupCache) AccessDense() (hits, misses int) {
	for u := 0; u < g.nunits && g.count < g.capacity; u++ {
		if !g.resident[u] {
			g.resident[u] = true
			g.count++
			g.heapPush(u)
		}
	}
	hits = g.count
	misses = g.nunits - g.count
	g.stats.Hits += int64(hits)
	g.stats.Misses += int64(misses)
	if g.policy == PolicyBelady {
		g.syncPos++
	}
	return hits, misses
}

// heapPush makes resident unit u evictable. A Belady unit's key is its
// next use, which cannot go stale while u stays in the heap: the replay
// follows the recorded trace, so u leaves the heap (as an accessed unit)
// at exactly that position.
func (g *GroupCache) heapPush(u int) {
	if g.policy == PolicyBelady {
		g.key[u] = -int64(g.nextUse(u))
	}
	i := len(g.heap)
	g.heap = append(g.heap, int32(u))
	g.pos[u] = int32(i)
	g.up(i)
}

// heapRemove takes unit u, which must be in the heap, out of it.
func (g *GroupCache) heapRemove(u int) {
	i := int(g.pos[u])
	last := len(g.heap) - 1
	if i != last {
		g.swap(i, last)
	}
	g.heap = g.heap[:last]
	g.pos[u] = -1
	if i != last && !g.down(i) {
		g.up(i)
	}
}

// heapify restores the heap order after keys changed in bulk.
func (g *GroupCache) heapify() {
	for i := len(g.heap)/2 - 1; i >= 0; i-- {
		g.down(i)
	}
}

// less orders heap slots by (key, unit).
func (g *GroupCache) less(i, j int) bool {
	a, b := g.heap[i], g.heap[j]
	ka, kb := g.key[a], g.key[b]
	return ka < kb || ka == kb && a < b
}

func (g *GroupCache) swap(i, j int) {
	h := g.heap
	h[i], h[j] = h[j], h[i]
	g.pos[h[i]] = int32(i)
	g.pos[h[j]] = int32(j)
}

func (g *GroupCache) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !g.less(i, p) {
			return
		}
		g.swap(i, p)
		i = p
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
func (g *GroupCache) down(i int) bool {
	start, n := i, len(g.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && g.less(r, c) {
			c = r
		}
		if !g.less(c, i) {
			break
		}
		g.swap(i, c)
		i = c
	}
	return i > start
}

// ModelCache is the full per-layer, per-group cache hierarchy for one
// model. It implements sparsity.CacheView.
type ModelCache struct {
	Policy Policy
	groups [][sparsity.NumGroups]*GroupCache
}

// NewModelCache builds caches for layers × groups. caps and nunits give the
// per-layer per-group unit capacities and universes; a zero universe means
// the group is unused by the scheme and gets no cache.
func NewModelCache(policy Policy, caps, nunits [][sparsity.NumGroups]int) *ModelCache {
	if len(caps) != len(nunits) {
		panic("cache: caps/nunits layer count mismatch")
	}
	mc := &ModelCache{Policy: policy}
	mc.groups = make([][sparsity.NumGroups]*GroupCache, len(caps))
	for l := range caps {
		for g := 0; g < int(sparsity.NumGroups); g++ {
			if nunits[l][g] > 0 {
				mc.groups[l][g] = NewGroupCache(policy, caps[l][g], nunits[l][g])
			}
		}
	}
	return mc
}

// Cached implements sparsity.CacheView.
func (mc *ModelCache) Cached(layer int, g sparsity.GroupID, unit int) bool {
	gc := mc.groups[layer][g]
	if gc == nil {
		return false
	}
	return gc.Resident(unit)
}

// Group returns the cache for (layer, group), or nil when unused.
func (mc *ModelCache) Group(layer int, g sparsity.GroupID) *GroupCache {
	return mc.groups[layer][g]
}

// AccessResult reports one token's traffic for one layer in units.
type AccessResult struct {
	HitUnits, MissUnits [sparsity.NumGroups]int
}

// Access replays a TokenAccess against the layer's caches.
func (mc *ModelCache) Access(layer int, ta *sparsity.TokenAccess) AccessResult {
	var res AccessResult
	for g := 0; g < int(sparsity.NumGroups); g++ {
		acc := ta.Groups[g]
		if acc.Kind == sparsity.AccessUnused {
			continue
		}
		gc := mc.groups[layer][g]
		if gc == nil {
			panic(fmt.Sprintf("cache: access to unconfigured group %v at layer %d", sparsity.GroupID(g), layer))
		}
		var h, m int
		if acc.Kind == sparsity.AccessDense {
			h, m = gc.AccessDense()
		} else {
			h, m = gc.AccessSparse(acc.Units)
		}
		res.HitUnits[g] = h
		res.MissUnits[g] = m
	}
	return res
}

// Occupancy returns the total resident units across all layers and groups —
// a full fingerprint of cache fill, used by determinism tests.
func (mc *ModelCache) Occupancy() int {
	n := 0
	for l := range mc.groups {
		for g := 0; g < int(sparsity.NumGroups); g++ {
			if gc := mc.groups[l][g]; gc != nil {
				n += gc.Occupancy()
			}
		}
	}
	return n
}

// TotalStats sums statistics over all layers and groups.
func (mc *ModelCache) TotalStats() Stats {
	var s Stats
	for l := range mc.groups {
		for g := 0; g < int(sparsity.NumGroups); g++ {
			if gc := mc.groups[l][g]; gc != nil {
				st := gc.Stats()
				s.Hits += st.Hits
				s.Misses += st.Misses
				s.Evictions += st.Evictions
			}
		}
	}
	return s
}

// SetTraces installs Belady traces recorded by a TraceRecorder.
func (mc *ModelCache) SetTraces(tr *TraceRecorder) {
	for l := range mc.groups {
		for g := 0; g < int(sparsity.NumGroups); g++ {
			if gc := mc.groups[l][g]; gc != nil && gc.policy == PolicyBelady {
				gc.SetTrace(tr.Stream(l, sparsity.GroupID(g)))
			}
		}
	}
}

// TraceRecorder captures per-(layer, group) access streams for the Belady
// oracle's first pass. Dense accesses are recorded as empty entries (they
// produce no eviction decisions).
type TraceRecorder struct {
	streams map[traceKey][][]int
}

type traceKey struct {
	layer int
	group sparsity.GroupID
}

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{streams: make(map[traceKey][][]int)}
}

// Record appends one token's access at a layer.
func (tr *TraceRecorder) Record(layer int, ta *sparsity.TokenAccess) {
	for g := 0; g < int(sparsity.NumGroups); g++ {
		acc := ta.Groups[g]
		if acc.Kind == sparsity.AccessUnused {
			continue
		}
		k := traceKey{layer, sparsity.GroupID(g)}
		var units []int
		if acc.Kind == sparsity.AccessSparse {
			units = append([]int(nil), acc.Units...)
		}
		tr.streams[k] = append(tr.streams[k], units)
	}
}

// Stream returns the recorded stream for (layer, group).
func (tr *TraceRecorder) Stream(layer int, g sparsity.GroupID) [][]int {
	return tr.streams[traceKey{layer, g}]
}
