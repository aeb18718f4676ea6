package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/serving"
	"repro/internal/serving/obs"
)

// NodeReport is one replica's slice of the cluster run.
type NodeReport struct {
	Node int
	// Drained / FailedTicks record the node's lifecycle: whether it was
	// administratively drained, and how many executed ticks it spent
	// ground-truth dead.
	Drained     bool
	FailedTicks int
	// Crashes counts ground-truth outage onsets (scripted and unscripted);
	// DetectLagTicks sums, over this node's confirmed real crashes, the
	// ticks between the crash and the detector's confirmation.
	Crashes        int
	DetectLagTicks int
	// StrandedRequests counts placements the router made onto this node
	// while it was already dead; Rejoins counts its returns from Down into
	// warm-up probation.
	StrandedRequests int
	Rejoins          int
	// Placements counts arrivals the router admitted to this node
	// (migrations excluded — a migrated session keeps its original
	// placement credit).
	Placements int
	// Report is the node's own engine report. Sessions appear on the node
	// they finished on; a migrated session is struck from its source.
	Report *serving.Report
}

// Report rolls one cluster run up: the per-node reports plus router and
// lifecycle metrics. Apart from Wall (and each node report's Wall), every
// field is deterministic — bit-identical across runs, worker counts, and
// decode paths for a fixed seed.
type Report struct {
	Router   string
	Workload string
	Ticks    int
	Nodes    []NodeReport

	// Rollup over every node's sessions: counts, token totals, exact
	// cluster-wide cache hit rate (from the nodes' raw hit/miss totals),
	// and latency/queueing percentiles recomputed over the merged session
	// set — not averaged node ratios.
	Sessions    int
	TotalTokens int
	GoodTokens  int
	// SimTokS / Goodput sum the node rates: replicas decode concurrently,
	// each against its own simulated memory system.
	SimTokS float64
	Goodput float64
	HitRate float64

	QueueP50, QueueP99           float64
	TurnaroundP50, TurnaroundP99 float64
	Deadlined, Attained          int
	SLOAttainRate                float64
	Classes                      []serving.ClassMetrics

	Preemptions, Retries, Failed, Shed int

	// Router metrics: per-node placement counts, imbalance (max/mean
	// placements — 1.0 is a perfect spread), and cross-node queueing: the
	// total and per-migrant mean ticks migrated sessions spent suspended
	// (their ResumeDelayTicks, which spans the node hop).
	Placements []int
	Imbalance  float64
	Migrations int
	// Requeues counts fresh (not-yet-admitted) queue entries re-routed off
	// a draining or failing node — placement paperwork, not live-stream
	// migrations.
	Requeues          int
	MigratedWaitTicks int
	MeanMigrantWait   float64

	// Lifecycle tallies: drains performed and ground-truth crash onsets.
	Drains, Failures int

	// Failure-detector metrics. HeartbeatMisses/Suspects/Confirms/Rejoins
	// tally the detector's transitions; Stranded counts placements made
	// onto already-dead nodes (re-routed with backoff at confirmation —
	// or, detector off, frozen until the node restarts). DetectLagTicks
	// sums crash→confirmation lag over confirms of genuinely dead nodes
	// and MeanDetectLag is its per-confirm mean — the measured cost the
	// zero-lag oracle mode sets to 0. Availability is the fraction of
	// node-ticks the cluster's nodes were actually up.
	HeartbeatMisses int
	Suspects        int
	Confirms        int
	Rejoins         int
	Stranded        int
	DetectLagTicks  int
	MeanDetectLag   float64
	Availability    float64

	// Counts is the merged per-node event tally when Config.Obs was set
	// (nil otherwise) — the input to ReconcileObs.
	Counts *obs.Counts

	// Wall is the host-measured annotation, outside the determinism
	// contract.
	Wall serving.WallClock
}

func (c *Cluster) report(ticks int, wall time.Duration) *Report {
	r := &Report{
		Router: c.router.Name(), Workload: c.w.Name(), Ticks: ticks,
		Placements: append([]int(nil), c.placements...),
		Migrations: c.migrations, Requeues: c.requeues,
		Drains: c.drains, Failures: c.failures,
		HeartbeatMisses: c.hbMisses, Suspects: c.suspects, Confirms: c.confirms,
		Wall: serving.WallClock{Seconds: wall.Seconds()},
	}
	var hits, misses int64
	var sessions []serving.SessionMetrics
	for n, e := range c.nodes {
		nr := e.Finalize(ticks)
		r.Nodes = append(r.Nodes, NodeReport{
			Node: n, Drained: c.drained[n], FailedTicks: c.failTicks[n],
			Crashes: c.crashes[n], DetectLagTicks: c.detectLagN[n],
			StrandedRequests: c.strandedN[n], Rejoins: c.rejoinsN[n],
			Placements: c.placements[n], Report: nr,
		})
		r.Rejoins += c.rejoinsN[n]
		r.Stranded += c.strandedN[n]
		r.DetectLagTicks += c.detectLagN[n]
		r.TotalTokens += nr.TotalTokens
		r.GoodTokens += nr.GoodTokens
		r.SimTokS += nr.SimTokS
		r.Goodput += nr.Goodput
		hits += nr.CacheHits
		misses += nr.CacheMisses
		r.Preemptions += nr.Preemptions
		r.Retries += nr.Retries
		r.Failed += nr.Failed
		r.Shed += nr.Shed
		sessions = append(sessions, nr.Sessions...)
	}
	r.Sessions = len(sessions)
	if t := hits + misses; t > 0 {
		r.HitRate = float64(hits) / float64(t)
	}
	if r.Wall.Seconds > 0 {
		r.Wall.TokS = float64(r.TotalTokens) / r.Wall.Seconds
	}
	queues := make([]float64, 0, len(sessions))
	turns := make([]float64, 0, len(sessions))
	byClass := map[string][]serving.SessionMetrics{}
	for _, sm := range sessions {
		if sm.Outcome != serving.OutcomeShed {
			queues = append(queues, float64(sm.QueueTicks))
		}
		if sm.Outcome == serving.OutcomeOK {
			turns = append(turns, sm.Turnaround)
		}
		if sm.DeadlineTick != serving.NoDeadline && sm.Outcome != serving.OutcomeCancelled {
			r.Deadlined++
			if sm.Attained {
				r.Attained++
			}
		}
		if c.migrated[sm.Index] {
			r.MigratedWaitTicks += sm.ResumeDelayTicks
		}
		class := sm.SLO.Class
		if class == "" {
			class = "default"
		}
		byClass[class] = append(byClass[class], sm)
	}
	r.QueueP50 = serving.Percentile(queues, 0.50)
	r.QueueP99 = serving.Percentile(queues, 0.99)
	r.TurnaroundP50 = serving.Percentile(turns, 0.50)
	r.TurnaroundP99 = serving.Percentile(turns, 0.99)
	r.SLOAttainRate = 1
	if r.Deadlined > 0 {
		r.SLOAttainRate = float64(r.Attained) / float64(r.Deadlined)
	}
	if r.Migrations > 0 {
		r.MeanMigrantWait = float64(r.MigratedWaitTicks) / float64(r.Migrations)
	}
	if c.lagMeasured > 0 {
		r.MeanDetectLag = float64(r.DetectLagTicks) / float64(c.lagMeasured)
	}
	r.Availability = 1
	if ticks > 0 && len(c.nodes) > 0 {
		r.Availability = 1 - float64(c.deadTicks)/float64(ticks*len(c.nodes))
	}
	if total := sum(r.Placements); total > 0 {
		mean := float64(total) / float64(len(r.Placements))
		maxP := 0
		for _, p := range r.Placements {
			if p > maxP {
				maxP = p
			}
		}
		r.Imbalance = float64(maxP) / mean
	}
	names := make([]string, 0, len(byClass))
	for name := range byClass {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Classes = append(r.Classes, classMetrics(name, byClass[name]))
	}
	if c.cfg.Obs != nil {
		merged := obs.Counts{}
		for _, rec := range c.recs {
			merged.Add(rec.Counts())
		}
		r.Counts = &merged
	}
	return r
}

// classMetrics mirrors the single-engine per-class aggregation over the
// merged cluster session set.
func classMetrics(name string, sms []serving.SessionMetrics) serving.ClassMetrics {
	cm := serving.ClassMetrics{Class: name, Sessions: len(sms)}
	queues := make([]float64, 0, len(sms))
	turns := make([]float64, 0, len(sms))
	for _, sm := range sms {
		if sm.Outcome != serving.OutcomeShed {
			queues = append(queues, float64(sm.QueueTicks))
		}
		if sm.Outcome == serving.OutcomeOK {
			turns = append(turns, sm.Turnaround)
		}
		if sm.DeadlineTick != serving.NoDeadline && sm.Outcome != serving.OutcomeCancelled {
			cm.Deadlined++
			if sm.Attained {
				cm.Attained++
			}
		}
	}
	cm.AttainRate = 1
	if cm.Deadlined > 0 {
		cm.AttainRate = float64(cm.Attained) / float64(cm.Deadlined)
	}
	cm.QueueP50 = serving.Percentile(queues, 0.50)
	cm.QueueP99 = serving.Percentile(queues, 0.99)
	cm.TurnaroundP50 = serving.Percentile(turns, 0.50)
	cm.TurnaroundP99 = serving.Percentile(turns, 0.99)
	return cm
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// ReconcileObs cross-checks the merged per-node event counts against the
// rolled-up report — the cluster analogue of serving.Report.ReconcileObs.
// Per-node reconciliation cannot hold under migration (a session admits on
// its source and finishes on its target), but the cluster-wide sums must:
// both sides count each decision exactly once on whichever node made it.
func (r *Report) ReconcileObs() error {
	if r.Counts == nil {
		return fmt.Errorf("cluster: report carries no merged event counts (run with Config.Obs set)")
	}
	var okFinishes, shedSessions, admitted int
	var stepFaults, revocations, cancellations int
	for _, nr := range r.Nodes {
		stepFaults += nr.Report.StepFaults
		revocations += nr.Report.Revocations
		cancellations += nr.Report.Cancellations
		for _, sm := range nr.Report.Sessions {
			switch sm.Outcome {
			case serving.OutcomeOK:
				okFinishes++
				admitted++
			case serving.OutcomeShed:
				shedSessions++
			default:
				admitted++
			}
		}
	}
	c := *r.Counts
	checks := []struct {
		name            string
		events, counter int
	}{
		{"arrivals vs reported sessions", c.Arrivals, r.Sessions},
		{"admit events vs admitted sessions", c.Admits, admitted},
		{"migrate-suspend events vs Report.Migrations", c.Migrations, r.Migrations},
		{"step-fault events vs node step faults", c.StepFaults, stepFaults},
		{"revocation events vs node revocations", c.Revocations, revocations},
		{"cancel-fault events vs node cancellations", c.Cancellations, cancellations},
		{"cancelled finish events vs node cancellations", c.Cancelled, cancellations},
		{"retry events vs Report.Retries", c.Retries, r.Retries},
		{"fault-suspend events vs Report.Retries", c.FaultSuspends, r.Retries},
		{"failed finish events vs Report.Failed", c.Failed, r.Failed},
		{"preemption suspend events vs Report.Preemptions", c.Preemptions, r.Preemptions},
		{"shed+degrade events vs Report.Shed", c.ShedArrivals + c.Degraded, r.Shed},
		{"shed+degrade events vs shed sessions", c.ShedArrivals + c.Degraded, shedSessions},
		{"ok finish events vs ok sessions", c.FinishedOK, okFinishes},
		{"heartbeat-miss events vs Report.HeartbeatMisses", c.HeartbeatMisses, r.HeartbeatMisses},
		{"suspect events vs Report.Suspects", c.Suspects, r.Suspects},
		{"confirm events vs Report.Confirms", c.Confirms, r.Confirms},
		{"rejoin events vs Report.Rejoins", c.Rejoins, r.Rejoins},
		{"strand events vs Report.Stranded", c.Stranded, r.Stranded},
	}
	for _, ck := range checks {
		if ck.events != ck.counter {
			return fmt.Errorf("cluster: observability reconciliation failed on %s: %d event(s) vs %d",
				ck.name, ck.events, ck.counter)
		}
	}
	return nil
}
