package serving

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/eval"
	"repro/internal/serving/obs"
)

// SessionMetrics is one finished session's record. Every field is measured
// on the simulated tick clock (or the simulated device model) and is
// bit-identical across runs and worker counts for a fixed seed.
type SessionMetrics struct {
	ID    string
	Index int
	// Point carries the session's KPIs: perplexity, measured density,
	// simulated tok/s and latency, and this session's cache hit rate.
	Point eval.Point
	// Tokens is the surviving decoded prefix; Decoded additionally counts
	// work discarded by destructive-fault restarts (equal without faults).
	Tokens  int
	Decoded int
	// Share is the granted cache-budget fraction.
	Share float64
	SLO   SLO
	// AdmitRank is the session's admission position (0 = first admitted).
	AdmitRank int
	// ArriveTick/AdmitTick/FinishTick are the session's simulated timeline.
	ArriveTick, AdmitTick, FinishTick int
	// QueueTicks is the arrival→admission queueing delay; TurnaroundTicks is
	// the arrival→finish span in whole ticks (FinishTick − ArriveTick).
	QueueTicks, TurnaroundTicks int
	// FinishSubStep is the 1-based sub-quantum step the stream drained on
	// (Quantum = the tick's last step; 0 only for a degenerate stream that
	// never stepped). FinishTime is the de-quantized finish instant,
	// FinishTick−1 + FinishSubStep/Quantum, and Turnaround the fractional
	// arrival→finish span used for percentiles — a session draining on
	// sub-step 1 of an 8-token quantum no longer pays for the 7 steps it
	// never ran.
	FinishSubStep int
	FinishTime    float64
	Turnaround    float64
	// DeadlineTick is the absolute SLO deadline (NoDeadline when the request
	// has none); Attained reports FinishTime ≤ DeadlineTick, vacuously true
	// without a deadline. Only completed sessions attain: a failed or shed
	// deadlined request is a miss, and cancelled sessions are excluded from
	// attainment entirely.
	DeadlineTick int
	Attained     bool
	// Preemptions counts how often the session was suspended mid-run;
	// ResumeDelayTicks is the total ticks it spent suspended.
	Preemptions, ResumeDelayTicks int
	// Outcome is the session's terminal state ("ok", "failed", "cancelled",
	// or "shed"); Faults counts injected faults it suffered, Retries the
	// re-placements it was granted, and RecoverTicks the total ticks from
	// each fault to its re-placement.
	Outcome               Outcome
	Faults                int
	Retries, RecoverTicks int
}

// ClassMetrics aggregates one SLO class.
type ClassMetrics struct {
	// Class is the SLO class label ("default" for unlabeled requests).
	Class    string
	Sessions int
	// Deadlined counts sessions with a real deadline (cancelled ones are
	// excluded); Attained counts those that finished by it — failed or shed
	// deadlined requests count as misses. AttainRate is Attained/Deadlined
	// (1 when the class has no deadlines).
	Deadlined, Attained int
	AttainRate          float64
	// Queue/Turnaround percentiles are in simulated ticks.
	QueueP50, QueueP99           float64
	TurnaroundP50, TurnaroundP99 float64
}

// WallClock is the report's host-measured annotation — the only block
// excluded from the determinism contract.
type WallClock struct {
	// Seconds is the total engine runtime on the host; TokS is aggregate
	// decoded tokens per wall second.
	Seconds float64
	TokS    float64
}

// Report aggregates one engine run. Apart from Wall, every field is
// deterministic: bit-identical across runs and worker counts for a fixed
// seed.
type Report struct {
	// Workload, Sched, and Preemptor name the run's request source,
	// admission policy, and preemption policy.
	Workload  string
	Sched     string
	Preemptor string
	Arb       ArbPolicy
	Sessions  []SessionMetrics // in submission order
	Ticks     int
	// Preemptions is the aggregate mid-run suspension count.
	Preemptions int

	// TotalTokens is the token count decoded across all sessions.
	TotalTokens int
	// SimTokS is the simulated aggregate throughput: all sessions' traffic
	// time-shares one memory system, so their simulated transfer times
	// serialize.
	SimTokS float64
	// HitRate is the unit-weighted cache hit rate across sessions.
	// CacheHits/CacheMisses are the raw totals behind it, kept so
	// multi-node rollups (internal/cluster) can recompute an exact
	// cluster-wide rate instead of averaging ratios.
	HitRate                float64
	CacheHits, CacheMisses int64
	// SimLatencyP50/P90/P99 are percentiles, across sessions, of the mean
	// simulated seconds per token.
	SimLatencyP50, SimLatencyP90, SimLatencyP99 float64
	// QueueP50/P90/P99 are percentiles of arrival→admission delay in ticks.
	QueueP50, QueueP90, QueueP99 float64
	// TurnaroundP50/P90/P99 are percentiles of arrival→finish span in ticks
	// at sub-quantum resolution (see SessionMetrics.Turnaround).
	TurnaroundP50, TurnaroundP90, TurnaroundP99 float64
	// SLOAttainRate is attained/deadlined over sessions with real deadlines
	// (1 when none have one). Classes breaks attainment and delay down per
	// SLO class, sorted by class label.
	SLOAttainRate float64
	Classes       []ClassMetrics

	// Robustness block — all zero on reliable hardware. Injector names the
	// fault plan ("none" without one). StepFaults / Revocations /
	// Cancellations count injected events that landed on running sessions;
	// Retries counts granted re-placements, Failed sessions that exhausted
	// their attempt budget, and Shed arrivals rejected by admission control
	// or degraded away. DipSlotTicks is capacity lost to dips (slot·ticks
	// while work existed); MeanRecoverTicks averages fault → re-placement
	// delay over granted retries.
	Injector                               string
	StepFaults, Revocations, Cancellations int
	Retries, Failed, Shed                  int
	DipSlotTicks                           int
	MeanRecoverTicks                       float64
	// GoodTokens counts tokens of completed sessions' surviving work;
	// Goodput is GoodTokens per simulated second. TotalTokens / SimTokS
	// above count *all* decoded tokens — including work discarded by
	// destructive-fault restarts and partial streams of failed or cancelled
	// sessions — so (SimTokS − Goodput) prices the wasted work.
	GoodTokens int
	Goodput    float64

	// Obs is the drain-time moving-window snapshot when a Config.Obs
	// recorder was attached (nil with tracing off). Every field in it runs
	// on the simulated clock, so it is inside the determinism contract —
	// fused and unfused reports carry identical snapshots.
	Obs *obs.Snapshot

	// Wall is the host-measured annotation (see WallClock).
	Wall WallClock
}

// ReconcileObs cross-checks the observer's aggregate event counts against
// the report's own counters and session outcomes, failing on the first
// divergent counter by name. The two are computed by independent code
// paths (per-decision event emissions vs the engine's running totals), so
// a pass means the event stream accounts for every counted decision — the
// guard against silent metrics drift.
func (r *Report) ReconcileObs() error {
	if r.Obs == nil {
		return fmt.Errorf("serving: report carries no observer snapshot (run with Config.Obs set)")
	}
	var okFinishes, shedSessions, admitted int
	for _, sm := range r.Sessions {
		switch sm.Outcome {
		case OutcomeOK:
			okFinishes++
			admitted++
		case OutcomeShed:
			shedSessions++
		default:
			admitted++
		}
	}
	c := r.Obs.Counts
	checks := []struct {
		name            string
		events, counter int
	}{
		{"arrivals vs reported sessions", c.Arrivals, len(r.Sessions)},
		{"admit events vs admitted sessions", c.Admits, admitted},
		{"step-fault events vs Report.StepFaults", c.StepFaults, r.StepFaults},
		{"revocation events vs Report.Revocations", c.Revocations, r.Revocations},
		{"cancel-fault events vs Report.Cancellations", c.Cancellations, r.Cancellations},
		{"cancelled finish events vs Report.Cancellations", c.Cancelled, r.Cancellations},
		{"retry events vs Report.Retries", c.Retries, r.Retries},
		{"fault-suspend events vs Report.Retries", c.FaultSuspends, r.Retries},
		{"failed finish events vs Report.Failed", c.Failed, r.Failed},
		{"preemption suspend events vs Report.Preemptions", c.Preemptions, r.Preemptions},
		{"shed+degrade events vs Report.Shed", c.ShedArrivals + c.Degraded, r.Shed},
		{"shed+degrade events vs shed sessions", c.ShedArrivals + c.Degraded, shedSessions},
		{"ok finish events vs ok sessions", c.FinishedOK, okFinishes},
	}
	for _, ck := range checks {
		if ck.events != ck.counter {
			return fmt.Errorf("serving: observability reconciliation failed on %s: %d event(s) vs %d",
				ck.name, ck.events, ck.counter)
		}
	}
	return nil
}

// report assembles the Report after the engine loop drains.
func (e *Engine) report(ticks int, wall time.Duration) *Report {
	r := &Report{
		Workload: e.w.Name(), Sched: e.sched.Name(), Preemptor: e.pre.Name(), Arb: e.cfg.Arb,
		Ticks: ticks, Preemptions: e.preempts, Wall: WallClock{Seconds: wall.Seconds()},
		Injector:   "none",
		StepFaults: e.stepFaults, Revocations: e.revokes, Cancellations: e.cancels,
		Retries: e.retries, Failed: e.failed, Shed: e.shedCount,
		DipSlotTicks: e.dipSlotTicks,
	}
	if e.cfg.Faults != nil {
		r.Injector = e.cfg.Faults.Name()
	}
	if e.obs != nil {
		snap := e.obs.Snapshot(ticks)
		r.Obs = &snap
	}
	if e.recoveries > 0 {
		r.MeanRecoverTicks = float64(e.recoverTicks) / float64(e.recoveries)
	}
	var simSeconds float64
	var hits, misses int64
	var deadlined, attained int
	simLats := make([]float64, 0, len(e.sessions))
	queues := make([]float64, 0, len(e.sessions))
	turns := make([]float64, 0, len(e.sessions))
	byClass := make(map[string][]SessionMetrics)
	for i, s := range e.sessions {
		if s == nil {
			if e.shedTick[i] < 0 {
				continue // admission failed mid-run; Run already returned an error
			}
			// Shed at admission control (or degraded away): never admitted,
			// never decoded. A deadlined shed request is an SLO miss.
			req := e.reqs[i]
			sm := SessionMetrics{
				ID: req.ID, Index: i, SLO: req.SLO, Outcome: OutcomeShed,
				ArriveTick: e.shedArrive[i], FinishTick: e.shedTick[i],
				FinishTime:   float64(e.shedTick[i]),
				Turnaround:   float64(e.shedTick[i] - e.shedArrive[i]),
				DeadlineTick: deadlineOf(e.shedArrive[i], req.SLO),
			}
			r.Sessions = append(r.Sessions, sm)
			if sm.DeadlineTick != NoDeadline {
				deadlined++
			}
			byClass[className(req.SLO)] = append(byClass[className(req.SLO)], sm)
			continue
		}
		pt := s.stream.Point()
		finishTime := float64(s.finishTick)
		if s.finishSub > 0 && s.finishSub < e.cfg.Quantum {
			finishTime = float64(s.finishTick-1) + float64(s.finishSub)/float64(e.cfg.Quantum)
		}
		outcome := s.outcome
		if outcome == "" {
			outcome = OutcomeOK
		}
		sm := SessionMetrics{
			ID: s.ID, Index: s.Index, Point: pt,
			Tokens: s.stream.Pos(), Decoded: s.stream.Decoded(),
			Share: s.Share, SLO: s.SLO, AdmitRank: s.AdmitRank,
			ArriveTick: s.arriveTick, AdmitTick: s.admitTick, FinishTick: s.finishTick,
			QueueTicks:       s.admitTick - s.arriveTick,
			TurnaroundTicks:  s.finishTick - s.arriveTick,
			FinishSubStep:    s.finishSub,
			FinishTime:       finishTime,
			Turnaround:       finishTime - float64(s.arriveTick),
			DeadlineTick:     s.deadlineTick,
			Attained:         outcome == OutcomeOK && finishTime <= float64(s.deadlineTick),
			Preemptions:      s.preempts,
			ResumeDelayTicks: s.resumeDelay,
			Outcome:          outcome,
			Faults:           s.faultCount,
			Retries:          s.attempts - 1,
			RecoverTicks:     s.recoverTicks,
		}
		r.Sessions = append(r.Sessions, sm)
		r.TotalTokens += sm.Decoded
		simSeconds += pt.LatencyS * float64(sm.Decoded)
		h, m := s.stream.Traffic()
		hits += h
		misses += m
		simLats = append(simLats, pt.LatencyS)
		queues = append(queues, float64(sm.QueueTicks))
		if outcome == OutcomeOK {
			r.GoodTokens += sm.Tokens
			turns = append(turns, sm.Turnaround)
		}
		if sm.DeadlineTick != NoDeadline && outcome != OutcomeCancelled {
			deadlined++
			if sm.Attained {
				attained++
			}
		}
		byClass[className(s.SLO)] = append(byClass[className(s.SLO)], sm)
	}
	if r.Wall.Seconds > 0 {
		r.Wall.TokS = float64(r.TotalTokens) / r.Wall.Seconds
	}
	if simSeconds > 0 {
		r.SimTokS = float64(r.TotalTokens) / simSeconds
		r.Goodput = float64(r.GoodTokens) / simSeconds
	}
	r.CacheHits, r.CacheMisses = hits, misses
	if t := hits + misses; t > 0 {
		r.HitRate = float64(hits) / float64(t)
	}
	r.SimLatencyP50 = Percentile(simLats, 0.50)
	r.SimLatencyP90 = Percentile(simLats, 0.90)
	r.SimLatencyP99 = Percentile(simLats, 0.99)
	r.QueueP50 = Percentile(queues, 0.50)
	r.QueueP90 = Percentile(queues, 0.90)
	r.QueueP99 = Percentile(queues, 0.99)
	r.TurnaroundP50 = Percentile(turns, 0.50)
	r.TurnaroundP90 = Percentile(turns, 0.90)
	r.TurnaroundP99 = Percentile(turns, 0.99)
	r.SLOAttainRate = attainRate(attained, deadlined)
	names := make([]string, 0, len(byClass))
	for name := range byClass {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Classes = append(r.Classes, classMetrics(name, byClass[name]))
	}
	return r
}

// className resolves an SLO's reporting label.
func className(slo SLO) string {
	if slo.Class == "" {
		return "default"
	}
	return slo.Class
}

// attainRate is attained/deadlined, vacuously 1 with no deadlines.
func attainRate(attained, deadlined int) float64 {
	if deadlined == 0 {
		return 1
	}
	return float64(attained) / float64(deadlined)
}

// classMetrics aggregates one SLO class's sessions.
func classMetrics(name string, sms []SessionMetrics) ClassMetrics {
	cm := ClassMetrics{Class: name, Sessions: len(sms)}
	queues := make([]float64, 0, len(sms))
	turns := make([]float64, 0, len(sms))
	for _, sm := range sms {
		if sm.Outcome != OutcomeShed {
			queues = append(queues, float64(sm.QueueTicks))
		}
		if sm.Outcome == OutcomeOK {
			turns = append(turns, sm.Turnaround)
		}
		if sm.DeadlineTick != NoDeadline && sm.Outcome != OutcomeCancelled {
			cm.Deadlined++
			if sm.Attained {
				cm.Attained++
			}
		}
	}
	cm.AttainRate = attainRate(cm.Attained, cm.Deadlined)
	cm.QueueP50 = Percentile(queues, 0.50)
	cm.QueueP99 = Percentile(queues, 0.99)
	cm.TurnaroundP50 = Percentile(turns, 0.50)
	cm.TurnaroundP99 = Percentile(turns, 0.99)
	return cm
}

// Percentile returns the nearest-rank p-quantile (p in [0,1]) of vals,
// or 0 when empty. The input is not modified.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
