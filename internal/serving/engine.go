package serving

import (
	"fmt"
	"time"

	"repro/internal/eval"
	"repro/internal/parallel"
	"repro/internal/serving/obs"
)

// Run drains the workload to completion under continuous batching and
// returns the aggregate report. Each tick the engine (1) collects the
// workload's arrivals, shuffling same-tick groups with the seeded RNG and
// queueing them — shedding arrivals beyond the admission budget and, under
// sustained pressure with Degrade set, queued optional work — (2) applies
// the fault plan to the running batch in slot order and parks sessions
// displaced by a capacity dip, (3) fills free batch slots with the
// scheduler's picks among entries not still backing off — resuming
// suspended sessions exactly like fresh entries — (4) lets the preemptor
// displace running sessions that queued entries strictly outrank, (5)
// advances every active session by the token quantum, and (6) retires
// drained sessions, reporting them back to the workload (closed-loop
// feedback). Everything runs on the simulated tick clock, so reports are
// bit-identical across runs and worker counts; only the Wall annotation
// varies.
func (e *Engine) Run() (*Report, error) {
	if err := e.Begin(); err != nil {
		return nil, err
	}
	var finished []Finished
	tick := 0
	for !e.w.Done() || len(e.queue) > 0 || len(e.active) > 0 {
		arrivals := e.w.Next(tick, finished)
		finished = finished[:0]
		for _, idx := range e.shuffleArrivals(arrivals) {
			shed, err := e.Inject(idx, tick, e.order)
			if err != nil {
				return nil, err
			}
			if shed {
				finished = append(finished, Finished{Index: idx, ID: e.reqs[idx].ID, Tick: tick})
			} else {
				e.order++
			}
		}
		fin, stepped, err := e.StepTick(tick)
		if err != nil {
			return nil, err
		}
		finished = append(finished, fin...)
		if !stepped {
			// Nothing to decode: an arrival gap, a closed-loop think pause,
			// every queued session backing off after a fault, or a full
			// capacity dip. Fast-forward the simulated clock to the earliest
			// event that can change that — no spinning through sparse gaps.
			next, ok := e.w.NextArrival()
			if ok && next <= tick {
				ok = false // scheduled in the past yet not yielded: no help
			}
			if nt, nok := e.NextEvent(tick); nok && (!ok || nt < next) {
				next, ok = nt, true
			}
			if len(finished) > 0 && (!ok || tick+1 < next) {
				// Terminations (cancel, retry exhaustion, shedding) this tick
				// have not been reported yet; a closed-loop workload may
				// schedule follow-ups once it hears. Deliver them next tick.
				next, ok = tick+1, true
			}
			if !ok {
				if e.w.Done() && len(e.queue) == 0 {
					break // faults drained the last sessions this tick
				}
				return nil, fmt.Errorf("serving: workload %q stalled at tick %d: not done, nothing active, next arrival %d (ok=%v)",
					e.w.Name(), tick, next, ok)
			}
			tick = next
			continue
		}
		tick++
	}
	return e.report(tick, time.Since(e.wallStart)), nil //lint:allow wallclock feeds Report.Wall only; every other report field is tick-clocked
}

// shuffleArrivals applies the seeded same-tick arrival shuffle that makes
// ties deterministic without privileging workload emission order.
func (e *Engine) shuffleArrivals(arrivals []int) []int {
	if len(arrivals) <= 1 {
		return arrivals
	}
	perm := e.rng.Perm(len(arrivals))
	e.shuffle = e.shuffle[:0]
	for _, j := range perm {
		e.shuffle = append(e.shuffle, arrivals[j])
	}
	return e.shuffle
}

// emitFinish records a session's terminal event (no-op with tracing off).
// OK finishes carry the 1-based sub-quantum drain step, the same
// path-identical offset the report's FinishSubStep uses.
func (e *Engine) emitFinish(tick, slot int, sess *Session) {
	if e.obs == nil {
		return
	}
	detail := obs.DetailOK
	sub := sess.finishSub
	switch sess.outcome {
	case OutcomeFailed:
		detail, sub = obs.DetailFailed, 0
	case OutcomeCancelled:
		detail, sub = obs.DetailCancelled, 0
	}
	e.obs.Emit(obs.Event{Tick: tick, SubStep: sub, Slot: slot, Kind: obs.KindFinish, Session: sess.ID, Detail: detail})
}

// obsTickStart feeds the tick-start telemetry (queue depth, per-class SLO
// slack, the step-batch event) and snapshots the active streams' counters
// so obsTickEnd can difference them. With tracing off it is a
// zero-allocation no-op (pinned by TestDisabledObserverAddsNoTickAllocations).
func (e *Engine) obsTickStart(tick int, active []*Session, queued int) (tok int, hits, misses int64) {
	if e.obs == nil {
		return 0, 0, 0
	}
	e.obs.ObserveQueue(tick, queued)
	for _, s := range active {
		st := s.stream.Stats()
		tok += st.Decoded
		hits += st.Hits
		misses += st.Misses
		if s.deadlineTick != NoDeadline {
			e.obs.ObserveSlack(tick, className(s.SLO), s.deadlineTick-tick)
		}
	}
	e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindStepBatch, Detail: widthDetail(len(active))})
	return tok, hits, misses
}

// obsTickEnd feeds the executed tick's decode deltas and, under ArbShared,
// records the slot-order commit of the tick's buffered accesses.
func (e *Engine) obsTickEnd(tick int, active []*Session, tokPre int, hitPre, missPre int64) {
	if e.obs == nil {
		return
	}
	var tok int
	var hits, misses int64
	for _, s := range active {
		st := s.stream.Stats()
		tok += st.Decoded
		hits += st.Hits
		misses += st.Misses
	}
	e.obs.ObserveDecode(tick, tok-tokPre, hits-hitPre, misses-missPre)
	if e.cfg.Arb == ArbShared {
		e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindCommit, Detail: widthDetail(len(active))})
	}
}

// widthDetail renders a batch width for the event log.
func widthDetail(n int) string { return fmt.Sprintf("width=%d", n) }

// degrade sheds queued optional work under sustained pressure: fresh,
// deadline-less entries (never-admitted best-effort requests) are dropped
// newest-first until the queue dips below the shed budget. Suspended
// sessions are never degraded away — work already invested is kept — and
// deadlined entries are exactly what degradation is making room for.
func (e *Engine) degrade(queue []*QueueEntry, tick int, finished *[]Finished) []*QueueEntry {
	for len(queue) >= e.cfg.ShedQueueBudget {
		drop := -1
		for i, qe := range queue {
			if qe.Sess == nil && qe.Deadline == NoDeadline && (drop < 0 || qe.Order > queue[drop].Order) {
				drop = i
			}
		}
		if drop < 0 {
			break
		}
		qe := queue[drop]
		e.shedArrive[qe.Index], e.shedTick[qe.Index] = qe.ArriveTick, tick
		e.shedCount++
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindDegrade, Session: qe.Req.ID})
		}
		*finished = append(*finished, Finished{Index: qe.Index, ID: qe.Req.ID, Tick: tick})
		queue = append(queue[:drop], queue[drop+1:]...)
	}
	return queue
}

// deadlineOf resolves a request's absolute deadline tick at arrival.
func deadlineOf(arriveTick int, slo SLO) int {
	if slo.DeadlineTicks <= 0 {
		return NoDeadline
	}
	return arriveTick + slo.DeadlineTicks
}

// tick advances the active batch by up to Quantum tokens in lockstep
// sub-steps. Each sub-step collects the unfinished slots in slot order and
// steps them: a lone session through Stream.Step (a one-column batch has
// nothing to fuse), NoFuse sessions through Stream.Step fanned over the
// worker pool, and otherwise the whole batch through one eval.BatchStep,
// which walks every weight matrix once instead of once per session. Under
// ArbShared the sub-step's buffered accesses are then committed serially in
// slot order, so the shared cache sees one deterministic interleaving for
// any worker count; partitioned sessions share no mutable state and apply
// their accesses to their private caches inside the step. All three ways of
// stepping are bit-identical (enforced by the fuse tests). A session that
// drains records the 1-based sub-step it drained on.
func (e *Engine) tick(active []*Session) {
	for q := 1; q <= e.cfg.Quantum; q++ {
		e.batch, e.batchSess = e.batch[:0], e.batchSess[:0]
		for _, s := range active {
			if !s.stream.Done() {
				e.batch = append(e.batch, s.stream)
				e.batchSess = append(e.batchSess, s)
			}
		}
		switch {
		case len(e.batch) == 0:
			return
		case len(e.batch) == 1:
			e.batch[0].Step()
		case e.cfg.NoFuse:
			parallel.For(len(e.batch), 1, func(lo, hi int) {
				for _, st := range e.batch[lo:hi] {
					st.Step()
				}
			})
		default:
			eval.BatchStep(e.batch, &e.arena)
		}
		if e.cfg.Arb == ArbShared {
			for _, st := range e.batch {
				st.Commit()
			}
		}
		for _, s := range e.batchSess {
			if s.stream.Done() {
				s.finishSub = q
			}
		}
	}
}
