package eval

import (
	"repro/internal/model"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// BatchArena owns the shared scratch of fused multi-stream stepping: the
// model-level decode arena, the per-slot scheme/view/access tables, and the
// sparsity batch scratch. One arena serves one batch of streams at a time
// (it is not safe for concurrent BatchStep calls); everything inside is
// sized lazily and reused, so steady-state batched decode allocates only
// the per-token KV-cache entries every decoder appends.
type BatchArena struct {
	db      model.DecodeBatch
	sps     sparsity.BatchScratch
	active  []*Stream
	decs    []*model.Decoder
	ids     []int
	schemes []sparsity.Scheme
	views   []sparsity.CacheView
	tas     []sparsity.TokenAccess
	lcol    tensor.Vec
	m       *model.Model
	hookFn  model.BatchMLPHook
}

// ensure sizes the arena tables for a batch of width B.
func (a *BatchArena) ensure(B int) {
	for len(a.decs) < B {
		a.decs = append(a.decs, nil)
		a.ids = append(a.ids, 0)
		a.schemes = append(a.schemes, nil)
		a.views = append(a.views, nil)
		a.tas = append(a.tas, sparsity.TokenAccess{})
	}
	if a.hookFn == nil {
		a.hookFn = a.mlpHook
	}
}

// mlpHook is the batched MLP hook: one fused ForwardBatch per layer, then
// per-stream instrumentation in slot order — density accounting plus either
// an immediate cache access priced on the stream's meter (the coupled,
// per-session-cache mode) or a copy into the stream's pending buffer (the
// deferred, shared-cache mode). Per stream this is exactly what
// coupledHook/deferredHook do one token at a time.
func (a *BatchArena) mlpHook(layer int, xs *tensor.Mat, out *tensor.Mat) {
	B := len(a.active)
	sparsity.ForwardBatch(layer, a.schemes[:B], xs, a.m.Blocks[layer].MLP, a.views[:B], out, a.tas[:B], &a.sps)
	for b, st := range a.active {
		ta := &a.tas[b]
		st.acc.Add(ta)
		if st.deferred {
			p := &st.pending[layer]
			for g := range ta.Groups {
				p.Groups[g].Kind = ta.Groups[g].Kind
				p.Groups[g].Units = append(p.Groups[g].Units[:0], ta.Groups[g].Units...)
			}
		} else {
			if layer == 0 {
				st.meter.BeginToken()
			}
			res := st.mc.Access(layer, ta)
			st.meter.AddAccess(res)
			st.note(res)
		}
	}
}

// BatchStep advances every unfinished stream in sts by one token through a
// single fused decode step — the multi-RHS batched analogue of calling
// Step on each stream in order, and bit-identical to it: same outputs, same
// CE sums, same cache and meter traffic per stream. Streams must share one
// model; KV caches, window state, scheme state, and (possibly shared)
// caches stay per-stream. Finished streams are skipped, so a draining batch
// shrinks naturally. In deferred mode the caller must Commit every stepped
// stream between BatchSteps, exactly as with Step.
//
// It returns the number of streams advanced (0 when every stream is done).
func BatchStep(sts []*Stream, a *BatchArena) int {
	a.active = a.active[:0]
	for _, st := range sts {
		if st.pos >= st.total {
			continue
		}
		if st.deferred && st.dirty {
			panic("eval: deferred Stream stepped with uncommitted accesses")
		}
		a.active = append(a.active, st)
	}
	B := len(a.active)
	if B == 0 {
		return 0
	}
	a.ensure(B)
	m := a.active[0].m
	for b, st := range a.active {
		if st.m != m {
			panic("eval: BatchStep streams must share one model")
		}
		st.beginToken()
		a.decs[b] = st.dec
		a.ids[b] = st.tokens[st.pos]
		a.schemes[b] = st.s
		a.views[b] = st.mc
	}
	a.m = m
	logits := m.StepBatch(a.decs[:B], a.ids[:B], a.hookFn, &a.db)
	a.lcol = tensor.Reuse(a.lcol, logits.Rows)
	for b, st := range a.active {
		st.endToken(logits.Col(b, a.lcol))
	}
	return B
}
