// Package serving is the multi-stream decode engine: many independent
// sessions — each its own token stream, scheme state, KV caches, and
// transfer meter — run against one shared DRAM cache budget. It models the
// server-side analogue of the paper's on-device setting: per-user decode
// streams contending for a fixed weight-cache allocation.
//
// Requests enter through a Workload — a deterministic source of timestamped
// arrivals on the simulated tick clock (FixedBatch, PoissonArrivals,
// ClosedLoop, or a replayed Trace) — each carrying an SLO class (priority
// and deadline ticks). A pluggable Scheduler (FCFS, strict priority, or
// earliest-deadline-first) orders the admission queue; continuous batching
// refills a slot the moment its session finishes; and a pluggable
// Preemptor (none, deadline, prio) may suspend a running session whose
// pressure a queued entry strictly outranks, resuming its retained stream
// later (see Preemptor). Each tick the engine advances every active
// session by a token quantum through eval.Stream — one fused batched step
// per token for the whole batch (see Config.NoFuse) over the same per-token
// machinery SystemEvaluate uses, so a session evaluated alone is
// bit-identical to a solo SystemEvaluate run.
//
// Cache arbitration (see ArbPolicy) decides how the plan's DRAM cache
// budget is split across concurrent sessions: over-committed per-session
// caches (exclusive), equal partitions (fair-share), first-come-first-served
// claims (greedy), or one genuinely shared cache with tick-ordered access
// commits (shared).
//
// Determinism contract: the engine runs on simulated time. Given a fixed
// seed (same-tick arrivals are shuffled by a seeded RNG) every arrival,
// admission, per-session output, queueing delay, SLO verdict, and cache
// statistic is bit-identical for any worker count. Partitioned sessions
// share no mutable state; the shared cache is only written in the serial
// commit phase, in slot order. Wall-clock time appears only in the Report's
// Wall annotation.
package serving

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// SLO is a request's service-level objective class.
type SLO struct {
	// Class labels the request for per-class reporting ("" reports as
	// "default"). Classes are free-form — "interactive", "batch", ….
	Class string
	// Priority orders admission under the priority scheduler (higher wins).
	Priority int
	// DeadlineTicks is the budget, in simulated ticks after arrival, for the
	// session to finish; 0 means no deadline (vacuously attained).
	DeadlineTicks int
}

// Request is one decode job: a token stream evaluated under a sparsity
// scheme, with an SLO class. The scheme is cloned at admission, so the same
// instance may back many requests.
type Request struct {
	ID     string
	Scheme sparsity.Scheme
	Tokens []int
	SLO    SLO
}

// Config tunes the engine.
type Config struct {
	// System supplies the device, eviction policy, window, and stream
	// truncation — the same knobs as a solo SystemEvaluate. Belady is
	// rejected: its oracle needs a fixed single-stream future.
	System eval.SystemConfig
	// Arb selects the cache-budget arbitration policy.
	Arb ArbPolicy
	// Sched orders the admission queue (nil = FCFS).
	Sched Scheduler
	// Preempt decides mid-run slot takeovers (nil = NoPreempt): when a
	// queued entry's deadline or priority pressure strictly exceeds a
	// running session's, the victim is suspended (its stream state kept,
	// its cache grant released per Arb) and re-queued for a later resume.
	Preempt Preemptor
	// MaxActive is the batch width: how many sessions decode concurrently.
	// Defaults to 4. It is deliberately not derived from the worker-pool
	// size — batch width shapes cache arbitration (fair shares are
	// budget/MaxActive) and admission ticks, so tying it to the host would
	// break the bit-identical-for-any-worker-count contract.
	MaxActive int
	// Quantum is how many tokens each active session advances per tick
	// (default 8). Under ArbShared every token is individually committed to
	// the shared cache in slot order, regardless of quantum.
	Quantum int
	// Seed drives the same-tick arrival shuffle. Fixed seed ⇒ fixed
	// admission tiebreaks ⇒ bit-identical outputs and cache statistics.
	Seed uint64
	// NoFuse swaps the fused multi-RHS decode step for per-session stepping.
	// Either way the tick runs one loop of token sub-steps over the
	// unfinished slots: by default each sub-step is one batched step that
	// walks every weight matrix once for the whole batch; with NoFuse it
	// steps each session on its own, fanned over the worker pool. Reports
	// are bit-identical either way (enforced in tests); the flag exists to
	// measure the fusion win and to pin the equivalence in CI.
	NoFuse bool

	// Faults injects seeded failures into the engine loop (nil = reliable
	// hardware). Fault draws are pure functions of (seed, tick, slot), so a
	// chaos run keeps the full determinism contract: bit-identical across
	// worker counts and fused/unfused paths. See internal/serving/faults.
	Faults faults.Injector
	// Retry governs recovery of faulted sessions. The zero value resolves
	// to the faults.RetryPolicy defaults (3 attempts, seeded exponential
	// backoff); MaxAttempts 1 disables recovery — the no-recovery baseline.
	Retry faults.RetryPolicy
	// ShedQueueBudget, when positive, is the admission-control budget: an
	// arrival finding the queue already holding that many entries is shed
	// (rejected, never admitted) instead of queued. 0 = never shed.
	ShedQueueBudget int
	// Degrade enables graceful degradation: when the queue has sat at the
	// shed budget for DegradeTicks consecutive ticks, the engine sheds
	// queued *optional* work — fresh, deadline-less entries, newest first —
	// to keep slack for deadlined requests instead of missing their SLOs.
	// Requires a positive ShedQueueBudget.
	Degrade bool
	// DegradeTicks is the sustained-pressure window before Degrade acts
	// (default 4).
	DegradeTicks int

	// Obs attaches a structured-event recorder (see internal/serving/obs):
	// the engine emits one event per control-plane decision — always from
	// the serial loop, never inside a parallel decode phase — and feeds the
	// recorder's moving-window trackers once per executed tick, then
	// attaches the drain-time obs.Snapshot to the Report. The event log is
	// part of the determinism contract: bit-identical across worker counts
	// and fused/unfused decode. nil disables observability entirely; every
	// emission site is guarded on it, so the disabled path adds zero
	// allocations to the tick (pinned by TestDisabledObserverAddsNoTickAllocations).
	// A recorder is single-run: NewEngine rejects one already bound to
	// another engine.
	Obs *obs.Recorder
}

// Session is one admitted request's live state.
type Session struct {
	ID    string
	Index int // submission index in the workload's request universe
	SLO   SLO
	// AdmitRank is the session's admission position (0 = first admitted).
	AdmitRank int
	// Share is the granted fraction of the cache budget (1 under ArbShared:
	// the whole cache, shared).
	Share float64

	stream *eval.Stream
	claim  float64 // greedy pool claim, released at suspension/retirement
	order  int     // the request's queue Order, kept for re-queueing

	// Simulated-clock timeline: arrival (workload), admission (scheduler),
	// finish (retirement), and the absolute SLO deadline (NoDeadline = none).
	arriveTick, admitTick, finishTick, deadlineTick int
	// finishSub is the 1-based sub-quantum step on which the stream drained
	// (0 only for degenerate streams that never stepped): the sub-tick
	// finish offset that de-quantizes turnaround and SLO accounting.
	finishSub int
	// Preemption bookkeeping: how often this session was suspended, the
	// tick of the most recent suspension, and the cumulative ticks spent
	// suspended (suspend → resume).
	preempts, suspendTick, resumeDelay int
	// Robustness bookkeeping: placement attempts consumed (1 after the
	// first admission), faults suffered, ticks spent fault-suspended
	// (fault → re-place), why the session last left its slot, and whether a
	// revocation demands a fresh full-budget grant at resume (exclusive).
	attempts, faultCount, recoverTicks int
	suspendedBy                        suspendCause
	needGrant                          bool
	outcome                            Outcome
}

// suspendCause records why a session left its slot — resume accounting
// differs between a preemption, an injected fault, and a capacity dip.
type suspendCause int

const (
	byPreempt suspendCause = iota
	byFault
	byDip
)

// Outcome is a session's terminal state in the report.
type Outcome string

const (
	// OutcomeOK: the stream drained to completion.
	OutcomeOK Outcome = "ok"
	// OutcomeFailed: faulted with the retry budget exhausted.
	OutcomeFailed Outcome = "failed"
	// OutcomeCancelled: the request was cancelled mid-stream by a fault
	// event; cancelled sessions are excluded from SLO attainment.
	OutcomeCancelled Outcome = "cancelled"
	// OutcomeShed: rejected at admission control, never admitted.
	OutcomeShed Outcome = "shed"
)

// Engine drains one workload to completion.
type Engine struct {
	m         *model.Model
	cfg       Config
	w         Workload
	reqs      []Request // the workload's request universe
	sched     Scheduler
	pre       Preemptor
	plan      *hwsim.Plan
	shared    *cache.ModelCache // non-nil under ArbShared
	sessions  []*Session        // by submission index, filled at admission
	arrived   []bool            // duplicate-arrival guard, by submission index
	claimed   float64           // greedy pool state: granted budget fraction
	claimants int               // live sessions holding a nonzero greedy claim
	preempts  int               // aggregate preemption count
	ran       bool
	wallStart time.Time

	// Tick-loop run state, owned by Begin and shared by Run and the
	// stepped API (Inject/StepTick) so a cluster can drive many engines on
	// one clock: the seeded arrival-shuffle RNG, the admission queue, the
	// active batch, the admission-rank counter, the engine-owned arrival
	// order counter (Run's; a cluster passes its own global order), and
	// the per-tick Finished scratch returned by StepTick.
	rng    *tensor.RNG
	queue  []*QueueEntry
	active []*Session
	rank   int
	order  int
	fin    []Finished

	// Robustness state: the resolved retry policy, aggregate fault/recovery
	// counters, shed requests by submission index (arrival and shed tick,
	// -1 = not shed), and the sustained-pressure tick counter driving
	// graceful degradation.
	retry                        faults.RetryPolicy
	stepFaults, revokes, cancels int
	failed, retries              int
	dipSlotTicks                 int
	recoverTicks, recoveries     int
	shedArrive, shedTick         []int
	shedCount                    int
	pressure                     int

	// obs is the optional structured-event recorder (nil = tracing off; the
	// engine guards every emission on it so the disabled path costs nothing
	// on the tick).
	obs *obs.Recorder

	// Per-tick scratch, reused across the run so steady-state ticks do not
	// allocate engine-side: the sub-step batch (streams plus their sessions,
	// for sub-quantum finish accounting), the fused-step arena, and the
	// same-tick arrival shuffle buffer.
	arena     eval.BatchArena
	batch     []*eval.Stream
	batchSess []*Session
	shuffle   []int
}

// NewEngine validates the configuration and lays out the shared memory
// plan. The plan's weight groups are the union over the workload's full
// request universe, so heterogeneous scheme mixes are priced consistently
// no matter when each request arrives.
func NewEngine(m *model.Model, cfg Config, w Workload) (*Engine, error) {
	if err := cfg.System.Validate(); err != nil {
		return nil, err
	}
	if cfg.System.Policy == cache.PolicyBelady {
		return nil, fmt.Errorf("serving: Belady eviction needs a fixed single-stream future; use lru/lfu")
	}
	if cfg.Arb < ArbExclusive || cfg.Arb > ArbShared {
		return nil, fmt.Errorf("serving: unknown arbitration policy %d", cfg.Arb)
	}
	if w == nil {
		return nil, fmt.Errorf("serving: no workload")
	}
	if cfg.Sched == nil {
		cfg.Sched = FCFS()
	}
	if cfg.Preempt == nil {
		cfg.Preempt = NoPreempt()
	}
	reqs := w.Requests()
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serving: workload %q has no requests", w.Name())
	}
	if cfg.MaxActive < 0 {
		return nil, fmt.Errorf("serving: Config.MaxActive must be non-negative (0 = default 4), got %d", cfg.MaxActive)
	}
	if cfg.Quantum < 0 {
		return nil, fmt.Errorf("serving: Config.Quantum must be non-negative (0 = default 8), got %d", cfg.Quantum)
	}
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 4
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 8
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, fmt.Errorf("serving: Config.Retry: %w", err)
	}
	if cfg.ShedQueueBudget < 0 {
		return nil, fmt.Errorf("serving: Config.ShedQueueBudget must be non-negative (0 = never shed), got %d", cfg.ShedQueueBudget)
	}
	if cfg.Degrade && cfg.ShedQueueBudget == 0 {
		return nil, fmt.Errorf("serving: Config.Degrade needs a positive ShedQueueBudget to define pressure")
	}
	if cfg.DegradeTicks < 0 {
		return nil, fmt.Errorf("serving: Config.DegradeTicks must be non-negative (0 = default 4), got %d", cfg.DegradeTicks)
	}
	if cfg.DegradeTicks == 0 {
		cfg.DegradeTicks = 4
	}
	if cfg.Obs != nil {
		if err := cfg.Obs.Bind(); err != nil {
			return nil, fmt.Errorf("serving: Config.Obs: %w", err)
		}
	}
	var groups [sparsity.NumGroups]bool
	for i, r := range reqs {
		if r.Scheme == nil {
			return nil, fmt.Errorf("serving: request %d (%q) has no scheme", i, r.ID)
		}
		if len(r.Tokens) == 0 {
			return nil, fmt.Errorf("serving: request %d (%q) has no tokens", i, r.ID)
		}
		if r.SLO.DeadlineTicks < 0 {
			return nil, fmt.Errorf("serving: request %d (%q) has negative deadline %d", i, r.ID, r.SLO.DeadlineTicks)
		}
		used := hwsim.ProbeGroups(sparsity.Clone(r.Scheme), m)
		for g := range groups {
			groups[g] = groups[g] || used[g]
		}
	}
	plan, err := hwsim.NewPlan(m, cfg.System.Device, hwsim.PlanOpts{
		BytesPerWeight:     cfg.System.BytesPerWeight,
		ExtraStaticWeights: cfg.System.ExtraStaticWeights,
		Groups:             groups,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		m: m, cfg: cfg, w: w, reqs: reqs, sched: cfg.Sched, pre: cfg.Preempt, plan: plan,
		obs:      cfg.Obs,
		retry:    cfg.Retry.WithDefaults(),
		sessions: make([]*Session, len(reqs)), arrived: make([]bool, len(reqs)),
		shedArrive: make([]int, len(reqs)),
		shedTick:   make([]int, len(reqs)),
		batch:      make([]*eval.Stream, 0, cfg.MaxActive),
		batchSess:  make([]*Session, 0, cfg.MaxActive),
	}
	for i := range e.shedArrive {
		e.shedArrive[i], e.shedTick[i] = -1, -1
	}
	if cfg.Arb == ArbShared {
		e.shared = plan.NewCache(cfg.System.Policy)
	}
	return e, nil
}

// Plan exposes the engine's memory layout (for reporting).
func (e *Engine) Plan() *hwsim.Plan { return e.plan }

// SharedCache returns the shared cache under ArbShared, else nil.
func (e *Engine) SharedCache() *cache.ModelCache { return e.shared }

// admit builds the live session for a queued entry with an arbitrated cache.
func (e *Engine) admit(qe *QueueEntry, rank, tick int) (*Session, error) {
	req := qe.Req
	sess := &Session{
		ID: req.ID, Index: qe.Index, SLO: req.SLO, AdmitRank: rank, order: qe.Order,
		arriveTick: qe.ArriveTick, admitTick: tick, deadlineTick: qe.Deadline,
	}
	scheme := sparsity.Clone(req.Scheme)
	var (
		mc       *cache.ModelCache
		deferred bool
	)
	if e.cfg.Arb == ArbShared {
		mc, sess.Share, deferred = e.shared, 1, true
	} else {
		share := e.grant(sess)
		mc = cache.NewModelCache(e.cfg.System.Policy, scaledCaps(e.plan.Caps, share), e.plan.NUnits)
		sess.Share = share
	}
	st, err := eval.NewStreamWith(e.m, scheme, req.Tokens, e.cfg.System, eval.StreamOpts{
		Plan: e.plan, Cache: mc, Deferred: deferred,
	})
	if err != nil {
		return nil, fmt.Errorf("serving: admitting %q: %w", req.ID, err)
	}
	sess.stream = st
	sess.attempts = 1
	e.sessions[qe.Index] = sess
	return sess, nil
}

// place admits a fresh queue entry (consuming one admission rank) or
// resumes a suspended one: the session's retained stream picks up where it
// stopped, and under the partitioned pool policies a fresh cache is granted
// at the policy's current share. ArbExclusive sessions keep their private
// over-committed cache across the suspension (a resumed run is
// bit-identical to an uninterrupted one), and ArbShared sessions keep the
// shared cache — only the slot was freed.
func (e *Engine) place(qe *QueueEntry, rank *int, tick, slot int) (*Session, error) {
	if qe.Sess == nil {
		sess, err := e.admit(qe, *rank, tick)
		if err != nil {
			return nil, err
		}
		*rank++
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindAdmit, Session: sess.ID, Detail: className(sess.SLO)})
			e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindGrant, Session: sess.ID, Detail: shareDetail(sess.Share)})
		}
		return sess, nil
	}
	sess := qe.Sess
	delay := tick - sess.suspendTick
	sess.resumeDelay += delay
	if sess.suspendedBy == byFault {
		// Time-to-recover: fault tick → the tick the session is re-placed.
		sess.recoverTicks += delay
		e.recoverTicks += delay
		e.recoveries++
	}
	regranted := true
	switch {
	case e.cfg.Arb == ArbFairShare || e.cfg.Arb == ArbGreedy:
		share := e.grant(sess)
		sess.Share = share
		sess.stream.Regrant(cache.NewModelCache(e.cfg.System.Policy, scaledCaps(e.plan.Caps, share), e.plan.NUnits))
	case sess.needGrant:
		// A revoked ArbExclusive session lost its private cache; grant a
		// fresh one at the full over-committed budget, as at admission.
		sess.Share = 1
		sess.stream.Regrant(cache.NewModelCache(e.cfg.System.Policy, e.plan.Caps, e.plan.NUnits))
	default:
		regranted = false // exclusive/shared resume keeps its cache
	}
	sess.needGrant = false
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindResume, Session: sess.ID, Detail: causeDetail(sess.suspendedBy)})
		if regranted {
			e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindGrant, Session: sess.ID, Detail: shareDetail(sess.Share)})
		}
	}
	return sess, nil
}

// shareDetail renders a grant's budget fraction for the event log; -1
// formats shortest-round-trip, so the detail is bit-stable wherever the
// report itself is.
func shareDetail(share float64) string {
	return "share=" + strconv.FormatFloat(share, 'g', -1, 64)
}

// causeDetail maps a suspension cause to its event-detail constant.
func causeDetail(c suspendCause) string {
	switch c {
	case byFault:
		return obs.DetailFault
	case byDip:
		return obs.DetailDip
	default:
		return obs.DetailPreempt
	}
}

// suspend preempts a running session: its stream state is retained for a
// later resume, its partitioned cache grant (fair/greedy) is released —
// preemption frees real memory, so the partition's contents are lost and
// the resume starts a cold cache at a fresh grant — and the session is
// wrapped back into a queue entry carrying its original Order, ArriveTick,
// and deadline so schedulers rank it exactly as before.
func (e *Engine) suspend(sess *Session, tick, slot int) *QueueEntry {
	sess.preempts++
	e.preempts++
	sess.suspendTick = tick
	sess.suspendedBy = byPreempt
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindSuspend, Session: sess.ID, Detail: obs.DetailPreempt})
	}
	switch e.cfg.Arb {
	case ArbFairShare, ArbGreedy:
		e.releaseClaim(sess)
		sess.stream.Release()
		e.emitRelease(tick, slot, sess)
	}
	return e.requeue(sess, 0)
}

// emitRelease records a cache grant / greedy claim release in the event
// log (no-op with tracing off).
func (e *Engine) emitRelease(tick, slot int, sess *Session) {
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindRelease, Session: sess.ID})
	}
}

// dipSuspend parks a session displaced by a capacity dip: the same retained
// stream and cache semantics as a preemption, but it is not counted as one
// (nothing outranked the session — its slot went away) and costs no retry
// attempt. The session is eligible for re-placement as soon as a slot frees.
func (e *Engine) dipSuspend(sess *Session, tick, slot int) *QueueEntry {
	sess.suspendTick = tick
	sess.suspendedBy = byDip
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindSuspend, Session: sess.ID, Detail: obs.DetailDip})
	}
	switch e.cfg.Arb {
	case ArbFairShare, ArbGreedy:
		e.releaseClaim(sess)
		sess.stream.Release()
		e.emitRelease(tick, slot, sess)
	}
	return e.requeue(sess, 0)
}

// faultSuspend pulls a faulted session out of its slot, consuming one retry
// attempt, or reports that the attempt budget is exhausted (nil). A
// transient step fault retains decode state under the same cache semantics
// as a preemption: exclusive and shared caches survive (warm resume — the
// exclusive case stays bit-identical to an uninterrupted solo run), while
// fair/greedy grants are released and resume cold. A destructive fault
// (revocation) additionally tears down the stream's decode state with the
// grant: the stream Restarts and re-prefills from scratch on resume,
// keeping its meter and traffic — wasted work shows up as the
// throughput−goodput gap. Either way the session re-enters the queue with
// its original scheduler rank, gated by the retry policy's seeded backoff.
func (e *Engine) faultSuspend(sess *Session, tick, slot int, destructive bool) *QueueEntry {
	sess.faultCount++
	if sess.attempts >= e.retry.MaxAttempts {
		return nil
	}
	sess.attempts++
	e.retries++
	sess.suspendTick = tick
	sess.suspendedBy = byFault
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindSuspend, Session: sess.ID, Detail: obs.DetailFault})
	}
	if destructive {
		e.releaseClaim(sess)
		sess.stream.Release()
		sess.stream.Restart()
		sess.needGrant = e.cfg.Arb == ArbExclusive
		e.emitRelease(tick, slot, sess)
	} else {
		switch e.cfg.Arb {
		case ArbFairShare, ArbGreedy:
			e.releaseClaim(sess)
			sess.stream.Release()
			e.emitRelease(tick, slot, sess)
		}
	}
	backoff := e.retry.Backoff(e.cfg.Seed, sess.Index, sess.attempts-1)
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindRetry, Session: sess.ID,
			Detail: fmt.Sprintf("attempt=%d backoff=%d", sess.attempts, backoff)})
	}
	return e.requeue(sess, tick+backoff)
}

// requeue wraps a suspended session back into a queue entry carrying its
// original Order, ArriveTick, and deadline so schedulers rank it exactly as
// before; notBefore gates re-placement (retry backoff).
func (e *Engine) requeue(sess *Session, notBefore int) *QueueEntry {
	return &QueueEntry{
		Req: e.reqs[sess.Index], Index: sess.Index, Sess: sess,
		ArriveTick: sess.arriveTick, Order: sess.order, Deadline: sess.deadlineTick,
		NotBefore: notBefore,
	}
}

// finish finalizes a session with its terminal outcome and releases any
// greedy claim. Failed and cancelled sessions keep their stream, so the
// report still prices the partial work they did.
func (e *Engine) finish(sess *Session, tick int, oc Outcome) {
	sess.finishTick = tick
	sess.outcome = oc
	e.releaseClaim(sess)
}

// retire finalizes a successfully drained session.
func (e *Engine) retire(sess *Session, tick int) {
	e.finish(sess, tick, OutcomeOK)
}
