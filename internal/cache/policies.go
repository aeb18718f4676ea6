package cache

// This file adds the eviction policies beyond the paper's main trio —
// FIFO and an aging LFU — used by the extended fig11-style ablations and
// cmd/dipsim. FIFO is the classic baseline the OS literature compares
// against; aging LFU addresses plain LFU's known failure mode (stale
// frequency counts pinning units whose hot phase has passed), which
// matters for long decoding sessions whose activation statistics drift.

const (
	// PolicyFIFO evicts the unit resident longest, regardless of use.
	PolicyFIFO Policy = iota + 100
	// PolicyLFUAged is LFU whose counts decay by half every AgingPeriod
	// accesses, so long-stale popularity cannot pin a unit forever.
	PolicyLFUAged
)

// AgingPeriod is the number of token-accesses between count halvings for
// PolicyLFUAged.
const AgingPeriod = 256

// noteInsert stamps a FIFO unit's key with its insertion time; hits never
// refresh it.
func (g *GroupCache) noteInsert(u int) {
	if g.policy == PolicyFIFO {
		g.key[u] = g.clock
	}
}

// maybeAge halves all use counts once per aging period. Halving can tie
// counts that were ordered, so the heap is rebuilt.
func (g *GroupCache) maybeAge() {
	if g.policy != PolicyLFUAged {
		return
	}
	if g.clock%AgingPeriod != 0 {
		return
	}
	for i := range g.key {
		g.key[i] /= 2
	}
	g.heapify()
}
