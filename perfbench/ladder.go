package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// rung is one row of the ladder: a layer's time per decoded token, the
// time of the rung below it, and the named remainder between the two.
type rung struct {
	Name      string  `json:"name"`
	UsPerTok  float64 `json:"us_per_tok"`
	Below     string  `json:"below"`
	BelowUs   float64 `json:"below_us_per_tok"`
	Remainder string  `json:"remainder"`
	RemUs     float64 `json:"remainder_us_per_tok"`
}

// ladderOut is what the ladder measured.
type ladderOut struct {
	batchStepUs, commitUs, stepUs   float64 // eval, per token
	stepBatchUs, forwardUs, hookUs  float64 // model and sparsity, per token
	attnUs                          float64 // nn, per token
	sparseNsCol, denseNsCol, topkNs float64
	hostGBs                         float64
	kernelUs                        float64 // sparse kernels plus top-k, per token
	accessUs, evictionsPerTok       float64 // cache replay
	tokens                          int
}

// ladder re-issues the workload's decode work at each lower public entry
// point, on the workload's own model, scheme, memory plan and batch width:
// eval (fused BatchStep plus Commit, then single-stream Step), model
// (StepBatch with a benchmark hook around sparsity.ForwardBatch), nn
// (Attention.StepBatch), tensor (the multi-RHS kernels and top-k) and cache
// (replaying the recorded accesses into a fresh cache). Every rung decodes
// the same B streams over the same L tokens each.
func ladder(t *tracer, p *prepared) (*ladderOut, error) {
	w, err := p.workload(0)
	if err != nil {
		return nil, err
	}
	lo := &ladderOut{}
	sp := t.begin("serving", "serving.new_engine")
	e, err := serving.NewEngine(p.m, p.node, w)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	plan := e.Plan()
	sys := p.node.System
	win := sys.Win
	if win == 0 || win > p.m.Cfg.MaxSeq {
		win = p.m.Cfg.MaxSeq
	}
	B := p.node.MaxActive
	reqs := w.Requests()
	if len(reqs) < B {
		return nil, fmt.Errorf("ladder: %d requests for batch width %d", len(reqs), B)
	}
	L := len(reqs[0].Tokens) / win * win
	toks := make([][]int, B)
	for i := range toks {
		toks[i] = reqs[i].Tokens
		if n := len(toks[i]) / win * win; n < L {
			L = n
		}
	}
	if L == 0 {
		return nil, fmt.Errorf("ladder: streams shorter than one %d-token window", win)
	}
	for i := range toks {
		toks[i] = toks[i][:L]
	}
	lo.tokens = B * L
	per := func(seconds float64) float64 { return seconds * 1e6 / float64(lo.tokens) }
	shared := p.node.Arb == serving.ArbShared
	caches := func() []*cache.ModelCache {
		mcs := make([]*cache.ModelCache, B)
		one := plan.NewCache(sys.Policy)
		for i := range mcs {
			if shared {
				mcs[i] = one
			} else {
				mcs[i] = plan.NewCache(sys.Policy)
			}
		}
		return mcs
	}
	streams := func() ([]*eval.Stream, error) {
		mcs := caches()
		sts := make([]*eval.Stream, B)
		for i := range sts {
			st, err := eval.NewStreamWith(p.m, sparsity.Clone(p.scheme), toks[i], sys, eval.StreamOpts{
				Plan: plan, Cache: mcs[i], Deferred: shared,
			})
			if err != nil {
				return nil, err
			}
			sts[i] = st
		}
		return sts, nil
	}

	// eval: the fused step, and the slot-order commit under a shared cache.
	sts, err := streams()
	if err != nil {
		return nil, err
	}
	var arena eval.BatchArena
	var batchS, commitS float64
	sp = t.begin("eval", "eval.fused")
	for {
		s := t.begin("eval", "eval.batch_step")
		t0 := now()
		n := eval.BatchStep(sts, &arena)
		batchS += since(t0)
		t.end(s)
		if n == 0 {
			break
		}
		if shared {
			s = t.begin("eval", "eval.commit")
			t0 = now()
			for _, st := range sts {
				st.Commit()
			}
			commitS += since(t0)
			t.end(s)
		}
	}
	t.end(sp)
	lo.batchStepUs, lo.commitUs = per(batchS), per(commitS)

	// eval: the single-stream step on fresh streams.
	if sts, err = streams(); err != nil {
		return nil, err
	}
	sp = t.begin("eval", "eval.step")
	start := now()
	for _, st := range sts {
		for st.Step() {
			if shared {
				st.Commit()
			}
		}
	}
	lo.stepUs = per(since(start))
	t.end(sp)

	// model: StepBatch with a hook around sparsity.ForwardBatch that applies
	// the accesses to the slots' caches and records them and the MLP inputs.
	nl := len(p.m.Blocks)
	decs := make([]*model.Decoder, B)
	schemes := make([]sparsity.Scheme, B)
	views := make([]sparsity.CacheView, B)
	mcs := caches()
	for i := range decs {
		decs[i] = p.m.NewDecoder(nil)
		schemes[i] = sparsity.Clone(p.scheme)
		views[i] = mcs[i]
	}
	tas := make([]sparsity.TokenAccess, B)
	var sps sparsity.BatchScratch
	var db model.DecodeBatch
	var forwardS, hookS float64
	xsRec := make([][]*tensor.Mat, nl) // per layer, per token: the MLP inputs
	accRec := make([]sparsity.TokenAccess, 0, L*nl*B)
	hook := func(layer int, xs, out *tensor.Mat) {
		h0 := now()
		s := t.begin("sparsity", "sparsity.forward_batch")
		t0 := now()
		sparsity.ForwardBatch(layer, schemes, xs, p.m.Blocks[layer].MLP, views, out, tas, &sps)
		forwardS += since(t0)
		t.end(s)
		xsRec[layer] = append(xsRec[layer], copyMat(xs))
		for b := range tas {
			ta := copyAccess(&tas[b])
			accRec = append(accRec, ta)
			mcs[b].Access(layer, &ta)
		}
		hookS += since(h0)
	}
	ids := make([]int, B)
	sp = t.begin("model", "model.step_batch")
	start = now()
	for pos := 0; pos < L; pos++ {
		if pos%win == 0 && pos > 0 {
			for _, d := range decs {
				d.Reset()
			}
		}
		for b := range ids {
			ids[b] = toks[b][pos]
		}
		p.m.StepBatch(decs, ids, hook, &db)
	}
	lo.stepBatchUs = per(since(start))
	t.end(sp)
	lo.forwardUs, lo.hookUs = per(forwardS), per(hookS)

	// nn: attention alone over the recorded activations, fresh KV caches.
	var as nn.AttnBatchScratch
	kvs := make([][]*nn.KVCache, nl)
	for l := range kvs {
		kvs[l] = make([]*nn.KVCache, B)
		for b := range kvs[l] {
			kvs[l][b] = &nn.KVCache{}
		}
	}
	aout := tensor.NewMat(p.m.Cfg.Dim, B)
	sp = t.begin("nn", "nn.attn_step_batch")
	start = now()
	for pos := 0; pos < L; pos++ {
		for l, blk := range p.m.Blocks {
			if pos%win == 0 {
				for _, kv := range kvs[l] {
					kv.Ks, kv.Vs = kv.Ks[:0], kv.Vs[:0]
				}
			}
			blk.Attn.StepBatch(xsRec[l][pos], kvs[l], aout, &as)
		}
	}
	lo.attnUs = per(since(start))
	t.end(sp)

	// tensor: the DIP kernels and top-k on the recorded inputs and unit
	// lists, plus the dense multi-RHS kernel on the attention projections.
	tensorRung(t, p, xsRec, accRec, B, lo)
	lo.kernelUs = lo.sparseNsCol*3*float64(nl)/1e3 + lo.topkNs*2*float64(nl)/1e3

	// cache: replay the recorded accesses into fresh caches in slot order.
	rc := caches()
	sp = t.begin("cache", "cache.access")
	start = now()
	i := 0
	for pos := 0; pos < L; pos++ {
		for l := 0; l < nl; l++ {
			for b := 0; b < B; b++ {
				rc[b].Access(l, &accRec[i])
				i++
			}
		}
	}
	lo.accessUs = per(since(start))
	t.end(sp)
	var ev int64
	for b, mc := range rc {
		if shared && b > 0 {
			break
		}
		ev += mc.TotalStats().Evictions
	}
	lo.evictionsPerTok = float64(ev) / float64(lo.tokens)
	return lo, nil
}

// tensorRung times tensor.MatVecSparseBatch and TopKIndicesInto on the
// recorded DIP unit lists, and MatVecBatch on the attention projections.
func tensorRung(t *tracer, p *prepared, xsRec [][]*tensor.Mat, accRec []sparsity.TokenAccess, B int, lo *ladderOut) {
	nl := len(p.m.Blocks)
	var sparseS, denseS, topkS float64
	var sparseCalls, denseCalls, topkCalls int
	var bytes float64
	var sbs tensor.SparseBatchScratch
	var tks tensor.TopKScratch
	idxA, idxB := make([][]int, B), make([][]int, B)
	var u, g, o, dense *tensor.Mat
	var scoreA, scoreB tensor.Vec
	var idx []int
	seen := map[int]bool{}
	union := func(idxs [][]int) int {
		clear(seen)
		for _, l := range idxs {
			for _, j := range l {
				seen[j] = true
			}
		}
		return len(seen)
	}
	sp := t.begin("tensor", "tensor.kernels")
	i := 0
	for pos := range xsRec[0] {
		for l := 0; l < nl; l++ {
			xs := xsRec[l][pos]
			mlp := p.m.Blocks[l].MLP
			attn := p.m.Blocks[l].Attn
			for b := 0; b < B; b++ {
				idxA[b] = accRec[i].Groups[sparsity.GroupUpGate].Units
				idxB[b] = accRec[i].Groups[sparsity.GroupDown].Units
				i++
			}
			u = tensor.ReuseMat(u, mlp.DFF, B)
			g = tensor.ReuseMat(g, mlp.DFF, B)
			o = tensor.ReuseMat(o, mlp.Dim, B)
			t0 := now()
			tensor.MatVecSparseBatch(mlp.Up.P.W, xs, idxA, u, &sbs)
			tensor.MatVecSparseBatch(mlp.Gate.P.W, xs, idxA, g, &sbs)
			tensor.MatVecSparseBatch(mlp.Down.P.W, u, idxB, o, &sbs)
			sparseS += since(t0)
			sparseCalls += 3
			na, nb := union(idxA), union(idxB)
			bytes += 4 * float64(2*mlp.DFF*na+mlp.Dim*nb)

			t0 = now()
			for _, wm := range []*tensor.Mat{attn.Wq.P.W, attn.Wk.P.W, attn.Wv.P.W} {
				dense = tensor.ReuseMat(dense, wm.Rows, B)
				tensor.MatVecBatch(wm, xs, dense)
				bytes += 4 * float64(wm.Rows*wm.Cols)
			}
			denseS += since(t0)
			denseCalls += 3

			for b := 0; b < B; b++ {
				scoreA = colAbs(xs, b, scoreA)
				scoreB = colAbs(u, b, scoreB)
				t0 = now()
				idx = tensor.TopKIndicesInto(scoreA, len(idxA[b]), &tks, idx)
				idx = tensor.TopKIndicesInto(scoreB, len(idxB[b]), &tks, idx)
				topkS += since(t0)
			}
			topkCalls += 2 * B
		}
	}
	t.end(sp)
	lo.sparseNsCol = sparseS * 1e9 / float64(sparseCalls*B)
	lo.denseNsCol = denseS * 1e9 / float64(denseCalls*B)
	lo.topkNs = topkS * 1e9 / float64(topkCalls)
	lo.hostGBs = bytes / (sparseS + denseS) / 1e9
}

// colAbs writes |column b of m| into dst.
func colAbs(m *tensor.Mat, b int, dst tensor.Vec) tensor.Vec {
	dst = tensor.Reuse(dst, m.Rows)
	for r := range dst {
		v := m.Data[r*m.Cols+b]
		if v < 0 {
			v = -v
		}
		dst[r] = v
	}
	return dst
}

// copyMat returns a deep copy of m.
func copyMat(m *tensor.Mat) *tensor.Mat {
	c := tensor.NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// copyAccess returns a copy of ta whose unit lists do not alias the
// scheme's scratch.
func copyAccess(ta *sparsity.TokenAccess) sparsity.TokenAccess {
	var c sparsity.TokenAccess
	for g := range ta.Groups {
		c.Groups[g].Kind = ta.Groups[g].Kind
		c.Groups[g].Units = append([]int(nil), ta.Groups[g].Units...)
	}
	return c
}
