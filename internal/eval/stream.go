package eval

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Validate reports the first invalid SystemConfig field by name. Zero values
// that have documented defaults (BytesPerWeight, Win, MaxTokens) are valid;
// everything else must describe a physically meaningful system.
func (cfg SystemConfig) Validate() error {
	switch {
	case cfg.Device.DRAMBandwidth <= 0:
		return fmt.Errorf("eval: SystemConfig.Device.DRAMBandwidth must be positive bytes/s, got %v", cfg.Device.DRAMBandwidth)
	case cfg.Device.FlashBandwidth <= 0:
		return fmt.Errorf("eval: SystemConfig.Device.FlashBandwidth must be positive bytes/s, got %v", cfg.Device.FlashBandwidth)
	case cfg.Device.DRAMFraction <= 0:
		return fmt.Errorf("eval: SystemConfig.Device.DRAMFraction must be positive, got %v", cfg.Device.DRAMFraction)
	case cfg.Policy.String() == "invalid":
		return fmt.Errorf("eval: SystemConfig.Policy %d is not a known cache policy", cfg.Policy)
	case cfg.BytesPerWeight < 0:
		return fmt.Errorf("eval: SystemConfig.BytesPerWeight must be non-negative (0 = INT4 default), got %v", cfg.BytesPerWeight)
	case cfg.ExtraStaticWeights < 0:
		return fmt.Errorf("eval: SystemConfig.ExtraStaticWeights must be non-negative, got %d", cfg.ExtraStaticWeights)
	case cfg.MaxTokens < 0:
		return fmt.Errorf("eval: SystemConfig.MaxTokens must be non-negative (0 = use all), got %d", cfg.MaxTokens)
	case cfg.Win < 0:
		return fmt.Errorf("eval: SystemConfig.Win must be non-negative (0 = model MaxSeq), got %d", cfg.Win)
	}
	return nil
}

// evalWindow resolves the effective (tokens, window, total) of a coupled
// evaluation: MaxTokens truncates the stream, Win defaults to the model's
// MaxSeq, and the stream is consumed in whole windows only (matching
// model.Perplexity's chunking).
func evalWindow(m *model.Model, tokens []int, cfg SystemConfig) (toks []int, win, total int) {
	if cfg.MaxTokens > 0 && len(tokens) > cfg.MaxTokens {
		tokens = tokens[:cfg.MaxTokens]
	}
	win = cfg.Win
	if win == 0 || win > m.Cfg.MaxSeq {
		win = m.Cfg.MaxSeq
	}
	nWin := 0
	if win > 0 {
		nWin = len(tokens) / win
	}
	return tokens, win, nWin * win
}

// Stream is a resumable cache-coupled evaluation of one token stream: the
// per-token Step API that SystemEvaluate and the serving engine share. Each
// Step feeds one token through an incremental decoder (per-layer KV caches,
// reset at window boundaries) with the scheme hooked into every MLP, scoring
// teacher-forced cross-entropy exactly like model.Perplexity's windowing.
//
// A stream owns all of its mutable state — scheme scratch, decoder, density
// accumulator, meter, CE sums — so independent streams may step concurrently.
// The cache is owned in the solo path (NewStream) and caller-provided in the
// serving path (NewStreamWith), where StreamOpts.Deferred additionally
// buffers each token's accesses for an explicitly ordered Commit instead of
// applying them inside Step.
type Stream struct {
	m      *model.Model
	s      sparsity.Scheme
	tokens []int
	win    int
	total  int

	plan  *hwsim.Plan
	mc    *cache.ModelCache
	meter *hwsim.Meter
	acc   *DensityAccumulator
	hook  model.MLPHook
	dec   *model.Decoder

	pos     int // tokens consumed
	decoded int // tokens ever stepped, including work a Restart discarded
	winPos  int // position within the current window
	winCE   float64
	ce      float64
	preds   int

	hits, misses int64 // this stream's cache traffic (mc may be shared)

	deferred bool
	pending  []sparsity.TokenAccess // per-layer buffer, valid when dirty
	dirty    bool
}

// StreamOpts configures NewStreamWith beyond the SystemConfig.
type StreamOpts struct {
	// Plan prices transfers; required.
	Plan *hwsim.Plan
	// Cache receives the stream's accesses; required. It may be sized
	// differently from Plan.Caps (cache-budget arbitration) or shared with
	// other streams (with Deferred set).
	Cache *cache.ModelCache
	// Deferred buffers each Step's accesses instead of applying them; the
	// caller applies them in its chosen order via Commit. The scheme still
	// sees Cache as its CacheView, so cache-aware masks read the state as of
	// the last Commit — the serving engine's tick-boundary semantics.
	Deferred bool
}

// NewStream builds a self-contained stream: the memory plan and cache are
// derived from cfg exactly as SystemEvaluate historically did, including the
// Belady recording pass (which replays the identical per-token access
// sequence because it runs through the same Step machinery).
func NewStream(m *model.Model, s sparsity.Scheme, tokens []int, cfg SystemConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := hwsim.NewPlan(m, cfg.Device, hwsim.PlanOpts{
		BytesPerWeight:     cfg.BytesPerWeight,
		ExtraStaticWeights: cfg.ExtraStaticWeights,
		Groups:             hwsim.ProbeGroups(s, m),
	})
	if err != nil {
		return nil, err
	}
	tokens, win, total := evalWindow(m, tokens, cfg)
	if cfg.Policy == cache.PolicyBelady {
		if ca, ok := s.(interface{ IsCacheAware() bool }); ok && ca.IsCacheAware() {
			return nil, fmt.Errorf("eval: Belady policy cannot replay a cache-aware scheme")
		}
		rec := cache.NewTraceRecorder()
		recSt := &Stream{m: m, s: s, tokens: tokens, win: win, total: total}
		recSt.hook = Hook(m, s, HookOpts{Recorder: rec})
		for recSt.Step() {
		}
		mc := plan.NewCache(cache.PolicyBelady)
		mc.SetTraces(rec)
		return newCoupled(m, s, tokens, win, total, plan, mc), nil
	}
	return newCoupled(m, s, tokens, win, total, plan, plan.NewCache(cfg.Policy)), nil
}

// NewStreamWith builds a stream against a caller-owned plan and cache — the
// serving engine's entry point, where many streams arbitrate one budget.
// Belady is rejected: its oracle needs a fixed single-stream future, which
// an online multi-stream cache does not have.
func NewStreamWith(m *model.Model, s sparsity.Scheme, tokens []int, cfg SystemConfig, opts StreamOpts) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Plan == nil || opts.Cache == nil {
		return nil, fmt.Errorf("eval: StreamOpts.Plan and StreamOpts.Cache are required")
	}
	if cfg.Policy == cache.PolicyBelady {
		return nil, fmt.Errorf("eval: Belady policy is not available for shared-cache streams")
	}
	tokens, win, total := evalWindow(m, tokens, cfg)
	st := newCoupled(m, s, tokens, win, total, opts.Plan, opts.Cache)
	if opts.Deferred {
		st.deferred = true
		st.pending = make([]sparsity.TokenAccess, len(m.Blocks))
		st.hook = st.deferredHook()
	}
	return st, nil
}

// newCoupled wires a stream whose hook applies accesses to mc as they
// happen, with the meter and density accumulator attached.
func newCoupled(m *model.Model, s sparsity.Scheme, tokens []int, win, total int, plan *hwsim.Plan, mc *cache.ModelCache) *Stream {
	st := &Stream{
		m: m, s: s, tokens: tokens, win: win, total: total,
		plan: plan, mc: mc, meter: plan.NewMeter(), acc: NewDensityAccumulator(m),
	}
	st.hook = st.coupledHook()
	return st
}

// coupledHook is eval.Hook plus per-stream hit/miss accounting (the cache's
// own totals would mix streams when the cache is shared).
func (st *Stream) coupledHook() model.MLPHook {
	return func(layer int, x tensor.Vec) tensor.Vec {
		if layer == 0 {
			st.meter.BeginToken()
		}
		y, ta := st.s.Forward(layer, x, st.m.Blocks[layer].MLP, st.mc)
		st.acc.Add(&ta)
		res := st.mc.Access(layer, &ta)
		st.meter.AddAccess(res)
		st.note(res)
		return y
	}
}

// deferredHook evaluates the scheme against the cache's current (tick-start)
// state but buffers the accesses for Commit. Unit lists are copied because
// schemes reuse their scratch between calls; the buffers are reused across
// tokens, so steady-state stepping does not allocate.
func (st *Stream) deferredHook() model.MLPHook {
	return func(layer int, x tensor.Vec) tensor.Vec {
		y, ta := st.s.Forward(layer, x, st.m.Blocks[layer].MLP, st.mc)
		st.acc.Add(&ta)
		p := &st.pending[layer]
		for g := range ta.Groups {
			p.Groups[g].Kind = ta.Groups[g].Kind
			p.Groups[g].Units = append(p.Groups[g].Units[:0], ta.Groups[g].Units...)
		}
		return y
	}
}

func (st *Stream) note(res cache.AccessResult) {
	for g := 0; g < int(sparsity.NumGroups); g++ {
		st.hits += int64(res.HitUnits[g])
		st.misses += int64(res.MissUnits[g])
	}
}

// Step consumes the next token: one incremental decode through every layer
// with the scheme hooked in, plus cross-entropy scoring against the token
// that follows. It returns false once the stream is exhausted. In deferred
// mode the caller must Commit between Steps.
func (st *Stream) Step() bool {
	if st.pos >= st.total {
		return false
	}
	if st.deferred && st.dirty {
		panic("eval: deferred Stream stepped with uncommitted accesses")
	}
	st.beginToken()
	st.endToken(st.dec.Step(st.tokens[st.pos]))
	return true
}

// beginToken readies the decoder for the next token: built on the first
// step, reset at every window start. Step and BatchStep share it.
func (st *Stream) beginToken() {
	if st.winPos == 0 {
		if st.dec == nil {
			st.dec = st.m.NewDecoder(st.hook)
		} else {
			st.dec.Reset()
		}
	}
}

// endToken advances the stream past the token whose logits were just
// decoded, scoring them against the next token, and marks a deferred
// stream's buffered accesses as awaiting Commit. Step and BatchStep share it.
func (st *Stream) endToken(logits tensor.Vec) {
	st.pos++
	st.decoded++
	st.winPos++
	if st.winPos < st.win {
		// This position predicts the next token of the same window; the
		// window's final logits are context-only, as in model.Perplexity.
		st.winCE += tensor.LogSumExp(logits) - float64(logits[st.tokens[st.pos]])
		st.preds++
	} else {
		st.ce += st.winCE
		st.winCE = 0
		st.winPos = 0
	}
	if st.deferred {
		st.dirty = true
	}
}

// Commit applies the deferred accesses of the last Step to the (shared)
// cache and prices them on this stream's meter. The caller chooses the
// cross-stream ordering; a fixed ordering makes shared-cache stats
// deterministic. Commit panics on a non-deferred stream.
func (st *Stream) Commit() {
	if !st.deferred {
		panic("eval: Commit on a non-deferred Stream")
	}
	if !st.dirty {
		return
	}
	st.meter.BeginToken()
	for l := range st.pending {
		res := st.mc.Access(l, &st.pending[l])
		st.meter.AddAccess(res)
		st.note(res)
	}
	st.dirty = false
}

// Release detaches the stream from its cache for a suspension: all decode
// state (decoder, KV caches, scheme scratch, CE sums, meter, traffic
// counters) is retained, so a later Regrant resumes the stream exactly
// where it stopped. Stepping a released stream fails loudly. Suspension is
// a tick-boundary operation — releasing with uncommitted deferred accesses
// panics.
func (st *Stream) Release() {
	if st.dirty {
		panic("eval: Release on a Stream with uncommitted accesses")
	}
	st.mc = nil
}

// Regrant couples a suspended stream to a (typically fresh) cache — the
// serving engine's resume hook after a preemption released the stream's
// partitioned cache grant. Cumulative traffic and meter state carry over;
// only the cache the scheme sees from the next Step onward changes.
func (st *Stream) Regrant(mc *cache.ModelCache) {
	if mc == nil {
		panic("eval: Regrant needs a cache")
	}
	st.mc = mc
}

// Restart rewinds the stream to token 0 for a from-scratch re-prefill after
// a destructive fault (a revoked cache grant takes the decode state built on
// it down too): position, window state, CE sums, and the density accumulator
// reset, and the decoder's KV state drops at the next Step. The meter,
// cumulative traffic counters, and the Decoded total are retained — the
// discarded prefix still cost simulated time and bytes, which is exactly the
// throughput-vs-goodput gap chaos reports measure. After a restarted stream
// drains, its CE, perplexity, and density equal a fresh run's (bit-identical
// for cache-independent schemes). Restart is a tick-boundary operation —
// restarting with uncommitted deferred accesses panics.
func (st *Stream) Restart() {
	if st.dirty {
		panic("eval: Restart on a Stream with uncommitted accesses")
	}
	st.pos, st.winPos = 0, 0
	st.winCE, st.ce = 0, 0
	st.preds = 0
	st.acc = NewDensityAccumulator(st.m)
}

// Done reports whether every token has been consumed.
func (st *Stream) Done() bool { return st.pos >= st.total }

// Pos returns the number of tokens consumed so far (Restart resets it).
func (st *Stream) Pos() int { return st.pos }

// Decoded returns the cumulative number of tokens ever stepped, including
// work discarded by Restart — the stream's throughput denominator, as
// opposed to Pos, which only counts the surviving prefix.
func (st *Stream) Decoded() int { return st.decoded }

// TotalTokens returns the number of tokens the stream will consume.
func (st *Stream) TotalTokens() int { return st.total }

// Cache returns the cache the stream is coupled to.
func (st *Stream) Cache() *cache.ModelCache { return st.mc }

// Deferred reports whether the stream buffers cache accesses for an
// explicit Commit (the shared-cache mode, fixed at construction). Callers
// moving a stream between owners — e.g. a cluster migrating a session —
// use this to check grant compatibility: a deferred stream can only ever
// be re-granted a shared cache, an undeferred one a private cache.
func (st *Stream) Deferred() bool { return st.deferred }

// Traffic returns this stream's cumulative cache traffic in units. Unlike
// the cache's own totals, these stay per-stream when the cache is shared.
func (st *Stream) Traffic() (hits, misses int64) { return st.hits, st.misses }

// CE returns the accumulated cross-entropy sum and prediction count —
// the raw per-stream output, useful for bit-exact comparisons.
func (st *Stream) CE() (float64, int) { return st.ce + st.winCE, st.preds }

// StreamStats is a point-in-time snapshot of the stream's integer counters
// — the per-tick feed for the serving engine's moving-window telemetry.
// All fields are cumulative, so a caller differencing two snapshots gets
// the interval's decode and traffic deltas.
type StreamStats struct {
	// Pos is the surviving consumed prefix; Decoded counts every token ever
	// stepped, including work a Restart discarded.
	Pos, Decoded int
	// Hits/Misses are this stream's cumulative cache traffic in units.
	Hits, Misses int64
}

// Stats snapshots the stream's counters without touching any float state,
// so sampling it never perturbs the evaluation.
func (st *Stream) Stats() StreamStats {
	return StreamStats{Pos: st.pos, Decoded: st.decoded, Hits: st.hits, Misses: st.misses}
}

// Point summarizes the stream's KPIs so far. After the final Step it equals
// what SystemEvaluate returns for the same configuration.
func (st *Stream) Point() Point {
	ppl := 0.0
	if st.preds > 0 {
		ppl = nn.Perplexity((st.ce + st.winCE) / float64(st.preds))
	}
	hitRate := 0.0
	if t := st.hits + st.misses; t > 0 {
		hitRate = float64(st.hits) / float64(t)
	}
	return Point{
		Scheme:     st.s.Name(),
		Density:    st.acc.Mean(),
		PPL:        ppl,
		Throughput: st.meter.Throughput(),
		HitRate:    hitRate,
		LatencyS:   st.meter.Latency(),
	}
}
