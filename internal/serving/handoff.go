package serving

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/serving/obs"
	"repro/internal/tensor"
)

// This file is the engine's stepped drive surface: the same tick loop Run
// executes, decomposed so an external clock — internal/cluster's shared
// cluster tick — can drive many engines in lockstep. Begin/Inject/StepTick/
// NextEvent/Finalize partition Run exactly (Run is a thin wrapper over
// them), and ExtractQueue/Evacuate/Accept move queued or suspended sessions
// between engines for drain and failover, carrying private cache state
// through the eval.Stream Release/Regrant hooks.

// Begin arms the engine for stepped driving: it claims the single run,
// seeds the arrival-shuffle RNG, and starts the wall clock. Run calls it
// internally; external drivers call it once before the first Inject or
// StepTick.
func (e *Engine) Begin() error {
	if e.ran {
		return fmt.Errorf("serving: engine already ran")
	}
	e.ran = true
	e.rng = tensor.NewRNG(e.cfg.Seed)
	e.active = make([]*Session, 0, e.cfg.MaxActive)
	e.wallStart = time.Now() //lint:allow wallclock Wall annotation origin; the run itself advances only on simulated ticks
	return nil
}

// Inject delivers one workload arrival to the admission queue at the given
// tick. The order stamp is the caller's monotone arrival counter — Run owns
// its own; a cluster passes one global counter so FCFS order stays total
// across nodes — and is consumed only when the arrival is queued. Inject
// reports shed=true when admission control drops the arrival at the door
// (the caller reports it back to the workload as finished); the engine has
// already done the shed accounting and event emission either way.
func (e *Engine) Inject(idx, tick, order int) (shed bool, err error) {
	if !e.ran {
		return false, fmt.Errorf("serving: Inject before Begin")
	}
	if idx < 0 || idx >= len(e.reqs) {
		return false, fmt.Errorf("serving: workload %q yielded request index %d outside its %d-request universe",
			e.w.Name(), idx, len(e.reqs))
	}
	if e.arrived[idx] {
		return false, fmt.Errorf("serving: workload %q yielded request %d (%q) twice", e.w.Name(), idx, e.reqs[idx].ID)
	}
	e.arrived[idx] = true
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindArrive,
			Session: e.reqs[idx].ID, Detail: className(e.reqs[idx].SLO)})
	}
	if e.cfg.ShedQueueBudget > 0 && len(e.queue) >= e.cfg.ShedQueueBudget {
		// Admission control: the queue is at budget, so the arrival
		// is shed outright — it never holds a slot, never decodes,
		// and reports back to the workload as finished next tick.
		e.shedArrive[idx], e.shedTick[idx] = tick, tick
		e.shedCount++
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindShed, Session: e.reqs[idx].ID})
		}
		return true, nil
	}
	e.queue = append(e.queue, &QueueEntry{
		Req: e.reqs[idx], Index: idx, ArriveTick: tick, Order: order,
		Deadline: deadlineOf(tick, e.reqs[idx].SLO),
	})
	return false, nil
}

// StepTick executes one engine tick after the tick's arrivals have been
// injected: degradation under sustained pressure, the fault plan in slot
// order, backfill, preemption, and — when anything is active — one decode
// quantum with retirements stamped at tick+1. It returns the sessions that
// terminated this tick (sheds via Inject excluded; the caller already has
// those) and stepped=false when nothing decoded, in which case the caller
// decides how far to fast-forward (see NextEvent). The returned slice is
// scratch reused by the next call.
func (e *Engine) StepTick(tick int) (fin []Finished, stepped bool, err error) {
	if !e.ran {
		return nil, false, fmt.Errorf("serving: StepTick before Begin")
	}
	e.fin = e.fin[:0]
	if e.cfg.Degrade {
		if len(e.queue) >= e.cfg.ShedQueueBudget {
			e.pressure++
		} else {
			e.pressure = 0
		}
		if e.pressure >= e.cfg.DegradeTicks {
			e.queue = e.degrade(e.queue, tick, &e.fin)
		}
	}
	// Fault application, in slot order on the batch as of tick start, so
	// decisions are pure functions of (seed, tick, slot) and the chaos
	// schedule commutes with worker count and decode-path choice.
	offline := 0
	if e.cfg.Faults != nil {
		if offline = e.cfg.Faults.Offline(tick); offline < 0 {
			offline = 0
		}
		if offline > e.cfg.MaxActive {
			offline = e.cfg.MaxActive
		}
		if offline > 0 && (len(e.active) > 0 || len(e.queue) > 0) {
			e.dipSlotTicks += offline
		}
		live := e.active[:0]
		for slot, s := range e.active {
			switch {
			case e.cfg.Faults.Cancel(tick, slot):
				e.cancels++
				if e.obs != nil {
					e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindFault, Session: s.ID, Detail: obs.DetailCancel})
				}
				e.finish(s, tick, OutcomeCancelled)
				e.emitFinish(tick, slot, s)
				e.fin = append(e.fin, Finished{Index: s.Index, ID: s.ID, Tick: tick})
			case e.cfg.Faults.Revoke(tick, slot) && e.cfg.Arb != ArbShared:
				// An eviction storm takes the session's grant (or greedy
				// claim) and the decode state built on it; under ArbShared
				// there is no per-session grant to revoke.
				e.revokes++
				if e.obs != nil {
					e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindFault, Session: s.ID, Detail: obs.DetailRevoke})
				}
				if qe := e.faultSuspend(s, tick, slot, true); qe != nil {
					e.queue = append(e.queue, qe)
				} else {
					e.failed++
					e.finish(s, tick, OutcomeFailed)
					e.emitFinish(tick, slot, s)
					e.fin = append(e.fin, Finished{Index: s.Index, ID: s.ID, Tick: tick})
				}
			case e.cfg.Faults.StepFault(tick, slot):
				e.stepFaults++
				if e.obs != nil {
					e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindFault, Session: s.ID, Detail: obs.DetailStep})
				}
				if qe := e.faultSuspend(s, tick, slot, false); qe != nil {
					e.queue = append(e.queue, qe)
				} else {
					e.failed++
					e.finish(s, tick, OutcomeFailed)
					e.emitFinish(tick, slot, s)
					e.fin = append(e.fin, Finished{Index: s.Index, ID: s.ID, Tick: tick})
				}
			default:
				live = append(live, s)
			}
		}
		e.active = live
		// A capacity dip takes the highest-numbered slots offline;
		// displaced sessions park (stream retained) until capacity
		// returns or another slot frees.
		for len(e.active) > e.cfg.MaxActive-offline {
			last := len(e.active) - 1
			e.queue = append(e.queue, e.dipSuspend(e.active[last], tick, last))
			e.active = e.active[:last]
		}
	}
	for len(e.active) < e.cfg.MaxActive-offline {
		best := -1
		for i := range e.queue {
			if e.queue[i].NotBefore > tick {
				continue // still backing off after a fault
			}
			if best < 0 || e.sched.Less(e.queue[i], e.queue[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		qe := e.queue[best]
		e.queue = append(e.queue[:best], e.queue[best+1:]...)
		sess, err := e.place(qe, &e.rank, tick, len(e.active))
		if err != nil {
			return nil, false, err
		}
		e.active = append(e.active, sess)
	}
	// Preemption: with the batch full and entries still queued, let the
	// preemptor pull rank. Each round suspends the named victim in
	// place (the slot keeps its position, so shared-cache commit order
	// stays the slot order) and admits the scheduler-best entry among
	// those able to preempt; the loop re-scans because a suspended
	// session re-enters the queue and may itself outrank a third
	// session. Strict preemptors guarantee termination: every takeover
	// strictly lowers the displaced slot's pressure rank. Entries still
	// backing off cannot preempt — their backoff gates placement however
	// the slot would be obtained.
	for len(e.queue) > 0 && len(e.active) > 0 {
		slot := e.pre.Victim(e.active)
		if slot < 0 {
			break
		}
		qi := -1
		for i, qe := range e.queue {
			if qe.NotBefore > tick {
				continue
			}
			if e.pre.Outranks(qe, e.active[slot]) && (qi < 0 || e.sched.Less(e.queue[i], e.queue[qi])) {
				qi = i
			}
		}
		if qi < 0 {
			break
		}
		qe := e.queue[qi]
		e.queue = append(e.queue[:qi], e.queue[qi+1:]...)
		e.queue = append(e.queue, e.suspend(e.active[slot], tick, slot))
		sess, err := e.place(qe, &e.rank, tick, slot)
		if err != nil {
			return nil, false, err
		}
		e.active[slot] = sess
	}
	if len(e.active) == 0 {
		return e.fin, false, nil
	}
	// Telemetry brackets the decode loop from the serial loop: the decode
	// loop itself never touches the recorder, so the event stream and
	// tracker feed are identical for any worker count and either decode
	// path.
	tokPre, hitPre, missPre := e.obsTickStart(tick, e.active, len(e.queue))
	e.tick(e.active)
	e.obsTickEnd(tick, e.active, tokPre, hitPre, missPre)
	post := tick + 1
	live := e.active[:0]
	for slot, s := range e.active {
		if s.stream.Done() {
			e.retire(s, post)
			if e.obs != nil {
				e.emitFinish(post, slot, s)
				e.obs.ObserveGood(post, s.stream.Pos())
			}
			e.fin = append(e.fin, Finished{Index: s.Index, ID: s.ID, Tick: post})
		} else {
			live = append(live, s)
		}
	}
	e.active = live
	return e.fin, true, nil
}

// NextEvent reports the earliest future tick at which this engine's queue
// can change state on its own: the soonest post-backoff eligibility, or
// tick+1 when an eligible entry is parked behind a capacity dip. ok=false
// means the queue holds nothing that a clock advance alone would unstick
// (the engine then waits on arrivals or migrations).
func (e *Engine) NextEvent(tick int) (next int, ok bool) {
	for _, qe := range e.queue {
		switch {
		case qe.NotBefore > tick:
			if !ok || qe.NotBefore < next {
				next, ok = qe.NotBefore, true
			}
		default:
			// Eligible but unplaced: only a dip can cause that; step
			// one tick and re-check capacity.
			if !ok || tick+1 < next {
				next, ok = tick+1, true
			}
		}
	}
	return next, ok
}

// Busy reports whether the engine still holds queued or active sessions.
func (e *Engine) Busy() bool { return len(e.queue) > 0 || len(e.active) > 0 }

// QueueDepth is the current admission-queue length (router load signal).
func (e *Engine) QueueDepth() int { return len(e.queue) }

// ActiveCount is the number of occupied batch slots (router load signal).
func (e *Engine) ActiveCount() int { return len(e.active) }

// Slots is the configured batch width.
func (e *Engine) Slots() int { return e.cfg.MaxActive }

// Finalize closes a stepped run at the given tick count and builds the
// report, exactly as Run does when the workload drains.
func (e *Engine) Finalize(ticks int) *Report {
	return e.report(ticks, time.Since(e.wallStart)) //lint:allow wallclock feeds Report.Wall only; every other report field is tick-clocked
}

// Migrant is a session in flight between engines: the queue entry (fresh,
// or suspended with its live stream) plus any private cache the stream
// held, released on the source and re-granted verbatim on the target —
// the simulated analogue of shipping KV/cache state with the session.
// Shared-arbitration sessions never carry a cache; they re-attach to the
// target's shared cache. Fair/greedy sessions re-acquire a grant from the
// target's pool at placement, and a revoked exclusive session migrates
// stateless and is re-granted a full budget on resume.
type Migrant struct {
	Entry *QueueEntry
	Cache *cache.ModelCache
}

// extract detaches one queue entry from this engine for migration. A
// suspended session logs a KindSuspend/DetailMigrate event, releases its
// claim and cache (carrying a private cache with it), and is struck from
// this engine's session table so exactly one node reports it.
func (e *Engine) extract(qe *QueueEntry, tick int) *Migrant {
	mig := &Migrant{Entry: qe}
	if sess := qe.Sess; sess != nil {
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindSuspend, Session: sess.ID, Detail: obs.DetailMigrate})
		}
		e.releaseClaim(sess)
		if mc := sess.stream.Cache(); mc != nil {
			sess.stream.Release()
			if mc != e.shared {
				mig.Cache = mc
			}
		}
		e.sessions[sess.Index] = nil
	}
	// The request no longer lives on this engine: clear the duplicate-
	// arrival guard so a later failover can migrate it back (a node that
	// crashed, recovered, and rejoined may legitimately re-host a request
	// it held before the crash).
	e.arrived[qe.Index] = false
	return mig
}

// ExtractQueue removes every queued entry — fresh and suspended — in queue
// order for placement elsewhere. Used by administrative drain: the node
// stops holding waiting work but keeps decoding its active sessions to
// completion.
func (e *Engine) ExtractQueue(tick int) []*Migrant {
	if len(e.queue) == 0 {
		return nil
	}
	migs := make([]*Migrant, 0, len(e.queue))
	for _, qe := range e.queue {
		migs = append(migs, e.extract(qe, tick))
	}
	e.queue = e.queue[:0]
	return migs
}

// Evacuate fails the node: every active session is parked in slot order
// through the capacity-dip suspension machinery (stream retained, grant
// released per policy), then the whole queue — the parked sessions
// included — is extracted for failover placement on surviving nodes.
func (e *Engine) Evacuate(tick int) []*Migrant {
	if n := len(e.active); n > 0 {
		e.dipSlotTicks += n
	}
	for len(e.active) > 0 {
		last := len(e.active) - 1
		e.queue = append(e.queue, e.dipSuspend(e.active[last], tick, last))
		e.active = e.active[:last]
	}
	return e.ExtractQueue(tick)
}

// Accept adopts a migrant into this engine's queue. Suspended sessions are
// re-registered under their original submission index (so reports stay
// keyed by the workload universe), re-granted their carried cache or this
// engine's shared cache, and resume through the ordinary backfill path with
// their suspension cause intact. Fresh entries keep their arrival stamp,
// order, and deadline — their arrival was already admitted and logged on
// the source, so migration bypasses this node's shed budget.
func (e *Engine) Accept(mig *Migrant, tick int) error {
	if !e.ran {
		return fmt.Errorf("serving: Accept before Begin")
	}
	qe := mig.Entry
	if qe == nil {
		return fmt.Errorf("serving: Accept of empty migrant")
	}
	if qe.Index < 0 || qe.Index >= len(e.reqs) {
		return fmt.Errorf("serving: migrant %q index %d outside this engine's %d-request universe",
			qe.Req.ID, qe.Index, len(e.reqs))
	}
	if sess := qe.Sess; sess != nil {
		if e.sessions[qe.Index] != nil {
			return fmt.Errorf("serving: migrant %q collides with a live session at index %d", qe.Req.ID, qe.Index)
		}
		if sess.stream.Deferred() != (e.cfg.Arb == ArbShared) {
			return fmt.Errorf("serving: session %q cannot migrate between shared and partitioned arbitration", qe.Req.ID)
		}
		switch {
		case mig.Cache != nil:
			sess.stream.Regrant(mig.Cache)
		case e.cfg.Arb == ArbShared:
			sess.stream.Regrant(e.shared)
		case e.cfg.Arb == ArbExclusive:
			// No state arrived (the grant was revoked before migration):
			// placement issues a fresh full-budget grant.
			sess.needGrant = true
		}
		e.arrived[qe.Index] = true
		e.sessions[qe.Index] = sess
	} else if e.arrived[qe.Index] {
		return fmt.Errorf("serving: migrant %q duplicates request index %d", qe.Req.ID, qe.Index)
	} else {
		e.arrived[qe.Index] = true
	}
	e.queue = append(e.queue, qe)
	return nil
}
