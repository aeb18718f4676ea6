// Package cluster is the deterministic simulated cluster: N replica
// serving.Engines on one shared tick clock behind a pluggable session
// Router, with per-node configs (heterogeneous cache budgets, schedulers,
// arbitration), node lifecycle — administrative drain, scripted and
// unscripted node failure with detector-driven failover, recovery, and
// rejoin — and a cluster-level Report that rolls up the per-node reports
// plus router and detector metrics.
//
// The control plane is serial and runs on tick boundaries in node order:
// same-tick arrivals are shuffled by the cluster's seeded RNG and routed
// one at a time (each placement sees the loads left by the previous one),
// lifecycle transitions and the failure-detector pass fire before routing,
// and migrants are re-placed through the same router. Only the node decode
// ticks fan out over internal/parallel, with results collected in node
// index order, so the whole cluster — the rolled-up Report and the merged
// per-node event logs — is bit-identical across worker counts,
// fused/unfused decode, and REPRO_PROCS.
//
// Failure is not free: nodes go down unannounced — on a scripted Failure
// tick or an unscripted chaos draw — and the cluster only learns of it
// through the heartbeat failure detector (see Detect and health.go).
// Between the crash and the confirmation the router still trusts the dead
// node: placements made in that window are stranded and re-routed with
// retry backoff only at confirmation, and failover migration happens at
// the confirmation tick, not the failure tick — detection lag is a real,
// measured cost. A crashed node restarts after its outage, rejoins behind
// a warm-up probation, and serves new sessions bit-identically to a node
// that never failed.
//
// Failover moves live state: a confirmed-down node parks its active
// sessions through the capacity-dip suspension machinery, then every
// queued entry — suspended streams included — migrates to surviving
// nodes, carrying private cache state through the eval.Stream
// Release/Regrant hooks (the simulated analogue of shipping KV/cache
// state with the session). A migrated exclusive-arbitration session is
// therefore bit-identical to an uninterrupted solo run, the same
// invariant the single engine holds for preemption.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/tensor"
)

// Failure schedules one scripted node outage: the node crashes at Tick —
// unannounced; the failure detector has to notice — and restarts at
// Tick+Ticks. Scripted failures feed the same lifecycle machine as
// unscripted chaos (Config.Chaos).
type Failure struct {
	Node, Tick, Ticks int
}

// Config tunes the cluster.
type Config struct {
	// Nodes carries one serving.Config per replica; heterogeneous budgets,
	// schedulers, and arbitration are allowed. Node Obs recorders must be
	// nil — the cluster owns per-node recorders (see Obs).
	Nodes []serving.Config
	// Router places arrivals and migrants (nil = ConsistentHash).
	Router Router
	// Seed drives the cluster's same-tick arrival shuffle.
	Seed uint64
	// DrainTick > 0 administratively drains DrainNode at that tick: the
	// node stops receiving placements, its queue migrates, and its active
	// sessions decode to completion locally. Requires at least two nodes.
	// A scripted Failure may not overlap the drain on the same node.
	DrainTick int
	DrainNode int
	// Failures schedules node outages (see Failure). Requires ≥ 2 nodes.
	Failures []Failure
	// Chaos schedules unscripted node lifecycle chaos — seeded crashes
	// with timed restarts, gray windows, heartbeat drops (see
	// faults.NodeChaos). The zero value is off; enabling it requires ≥ 2
	// nodes.
	Chaos faults.NodeChaos
	// Detect tunes the failure detector watching the nodes' heartbeats
	// (see Detect); the zero value is the heartbeat detector at default
	// thresholds.
	Detect Detect
	// Retry shapes the backoff applied when stranded requests re-route at
	// confirmation; the zero value uses the faults defaults.
	Retry faults.RetryPolicy
	// Obs, when non-nil, attaches one recorder per node; the cluster report
	// then carries the merged event counts and Events() returns the k-way
	// merged per-node logs.
	Obs *obs.Config
}

// Cluster drives N replica engines on one shared tick clock.
type Cluster struct {
	cfg    Config
	w      serving.Workload
	reqs   []serving.Request
	router Router
	nodes  []*serving.Engine
	recs   []*obs.Recorder // per node; nil entries with Obs unset

	drained    []bool
	failTicks  []int // per node: executed ticks spent ground-truth dead
	placements []int
	migrated   map[int]bool       // request indices that crossed nodes
	parked     []*serving.Migrant // migrants with nowhere to go during a total outage
	held       []int              // arrivals held at the ingress during a total outage
	migrations int                // suspended-session migrations (fresh re-routes excluded)
	requeues   int                // fresh queue entries re-routed by drain/failover
	drains     int
	failures   int // ground-truth crash onsets (scripted and unscripted)
	order      int
	ran        bool

	// Failure detection (see health.go). Ground truth: wasDead mirrors
	// deadAt at the last detector pass, crashTick the latest onset.
	// Detector view: health, probation, and the tallies the report rolls
	// up. strandAttempts counts, per request index, how many times a
	// placement landed on a dead node — the attempt number its failover
	// backoff is drawn from.
	plan           *faults.NodePlan // nil with chaos off
	detect         Detect           // defaulted
	mode           int              // detHeartbeat | detOracle | detOff
	retry          faults.RetryPolicy
	health         []Health
	wasDead        []bool
	crashTick      []int
	probation      []int
	crashes        []int
	detectLagN     []int
	strandedN      []int
	rejoinsN       []int
	strandAttempts map[int]int
	hbMisses       int
	suspects       int
	confirms       int
	lagMeasured    int // confirms of genuinely dead nodes (the lag samples)
	deadTicks      int // total node-ticks spent ground-truth dead
	stallHorizon   int

	cand    []int
	loads   []Load
	shuffle []int
}

// Detector modes, parsed from Detect.Mode.
const (
	detHeartbeat = iota
	detOracle
	detOff
)

// New validates the topology and builds one engine per node against the
// shared workload. Every engine plans the full request universe, so a
// session can migrate to any node and keep its pricing.
func New(m *model.Model, cfg Config, w serving.Workload) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if cfg.Router == nil {
		cfg.Router = ConsistentHash()
	}
	if cfg.DrainTick < 0 {
		return nil, fmt.Errorf("cluster: negative drain tick %d", cfg.DrainTick)
	}
	if cfg.DrainTick > 0 {
		if len(cfg.Nodes) < 2 {
			return nil, fmt.Errorf("cluster: draining needs at least 2 nodes, have %d", len(cfg.Nodes))
		}
		if cfg.DrainNode < 0 || cfg.DrainNode >= len(cfg.Nodes) {
			return nil, fmt.Errorf("cluster: drain node %d outside the %d-node cluster", cfg.DrainNode, len(cfg.Nodes))
		}
	}
	maxOutageEnd := 0
	for i, f := range cfg.Failures {
		if len(cfg.Nodes) < 2 {
			return nil, fmt.Errorf("cluster: failover needs at least 2 nodes, have %d", len(cfg.Nodes))
		}
		if f.Node < 0 || f.Node >= len(cfg.Nodes) {
			return nil, fmt.Errorf("cluster: failure node %d outside the %d-node cluster", f.Node, len(cfg.Nodes))
		}
		if f.Tick < 0 || f.Ticks <= 0 {
			return nil, fmt.Errorf("cluster: failure at tick %d for %d ticks is not a future outage", f.Tick, f.Ticks)
		}
		if cfg.DrainTick > 0 && f.Node == cfg.DrainNode && f.Tick+f.Ticks > cfg.DrainTick {
			// A node cannot be administratively drained and crashed at
			// once: the drain promises its active sessions finish locally,
			// the outage would freeze them.
			return nil, fmt.Errorf("cluster: failure %d overlaps the drain of node %d: outage [%d, %d) crosses the drain at tick %d",
				i, cfg.DrainNode, f.Tick, f.Tick+f.Ticks, cfg.DrainTick)
		}
		if f.Tick+f.Ticks > maxOutageEnd {
			maxOutageEnd = f.Tick + f.Ticks
		}
	}
	if err := cfg.Chaos.Validate(); err != nil {
		return nil, err
	}
	if cfg.Chaos.Enabled() && len(cfg.Nodes) < 2 {
		return nil, fmt.Errorf("cluster: node chaos needs at least 2 nodes, have %d", len(cfg.Nodes))
	}
	if err := cfg.Detect.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, err
	}
	if cfg.DrainTick > 0 || len(cfg.Failures) > 0 || cfg.Chaos.Enabled() {
		// Migration moves live streams between nodes, and a stream's
		// deferred-commit mode is fixed at construction: shared and
		// partitioned arbitration cannot exchange sessions.
		shared := cfg.Nodes[0].Arb == serving.ArbShared
		for i, nc := range cfg.Nodes[1:] {
			if (nc.Arb == serving.ArbShared) != shared {
				return nil, fmt.Errorf("cluster: node %d mixes shared and partitioned arbitration; migration cannot cross that boundary", i+1)
			}
		}
	}
	c := &Cluster{
		cfg: cfg, w: w, reqs: w.Requests(), router: cfg.Router,
		nodes:          make([]*serving.Engine, len(cfg.Nodes)),
		recs:           make([]*obs.Recorder, len(cfg.Nodes)),
		drained:        make([]bool, len(cfg.Nodes)),
		failTicks:      make([]int, len(cfg.Nodes)),
		placements:     make([]int, len(cfg.Nodes)),
		migrated:       map[int]bool{},
		loads:          make([]Load, len(cfg.Nodes)),
		detect:         cfg.Detect.withDefaults(),
		retry:          cfg.Retry.WithDefaults(),
		health:         make([]Health, len(cfg.Nodes)),
		wasDead:        make([]bool, len(cfg.Nodes)),
		crashTick:      make([]int, len(cfg.Nodes)),
		probation:      make([]int, len(cfg.Nodes)),
		crashes:        make([]int, len(cfg.Nodes)),
		detectLagN:     make([]int, len(cfg.Nodes)),
		strandedN:      make([]int, len(cfg.Nodes)),
		rejoinsN:       make([]int, len(cfg.Nodes)),
		strandAttempts: map[int]int{},
	}
	switch c.detect.Mode {
	case "oracle":
		c.mode = detOracle
	case "off":
		c.mode = detOff
	default:
		c.mode = detHeartbeat
	}
	chaos := cfg.Chaos.WithDefaults()
	if cfg.Chaos.Enabled() {
		plan, err := faults.NewNodePlan(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		c.plan = plan
	}
	// The stall horizon bounds how long the clock may advance with no
	// engine progress — frozen outages resolve within the scripted windows
	// plus the chaos restart, detection, and probation horizons; anything
	// beyond that is a livelock, reported instead of spun on.
	c.stallHorizon = maxOutageEnd + cfg.DrainTick +
		16*chaos.RecoverTicks + chaos.GrayTicks +
		c.detect.MissConfirm + c.detect.ProbationTicks + 256
	for i, nc := range cfg.Nodes {
		if nc.Obs != nil {
			return nil, fmt.Errorf("cluster: node %d carries its own recorder; set Config.Obs instead", i)
		}
		if cfg.Obs != nil {
			c.recs[i] = obs.NewRecorder(*cfg.Obs)
			nc.Obs = c.recs[i]
		}
		if c.plan != nil && chaos.GrayRate > 0 {
			// Gray windows dip the node's decode capacity through the
			// ordinary slot-level fault machinery.
			nc.Faults = grayFaults{inner: nc.Faults, plan: c.plan, node: i}
		}
		e, err := serving.NewEngine(m, nc, w)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes[i] = e
	}
	return c, nil
}

// Nodes returns the number of replicas.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Events returns the merged per-node event logs (nil without Config.Obs):
// each event stamped with its node, interleaved by (tick, node) with
// intra-node order preserved — see obs.MergeEvents.
func (c *Cluster) Events() []obs.Event {
	if c.cfg.Obs == nil {
		return nil
	}
	logs := make([][]obs.Event, len(c.recs))
	for i, r := range c.recs {
		logs[i] = r.Events()
	}
	return obs.MergeEvents(logs...)
}

// routable collects the nodes accepting placements at tick, in ascending
// node order, gated by the detector's health view: Down nodes never take
// work, Suspect nodes only when no other candidate remains, and Rejoining
// nodes only while lightly loaded (warm-up probation — below half their
// slots of held work). Dead-but-still-Healthy nodes stay routable: the
// detector has not noticed yet, and placements onto them strand. Assumes
// c.loads is fresh (route refreshes it first).
func (c *Cluster) routable(tick int) []int {
	c.cand = c.cand[:0]
	for n := range c.nodes {
		if c.drained[n] {
			continue
		}
		switch c.health[n] {
		case Down, Suspect:
			continue
		case Rejoining:
			if c.loads[n].Queued+c.loads[n].Active >= warmCap(c.loads[n].Slots) {
				continue
			}
		}
		c.cand = append(c.cand, n)
	}
	if len(c.cand) == 0 {
		// Fall back to Suspect (and fully warmed Rejoining) nodes rather
		// than dropping traffic; only confirmed-Down nodes stay excluded.
		for n := range c.nodes {
			if !c.drained[n] && c.health[n] != Down {
				c.cand = append(c.cand, n)
			}
		}
	}
	return c.cand
}

// warmCap is the held-work ceiling a Rejoining node may take placements
// under: half its batch width, at least one.
func warmCap(slots int) int {
	cap := (slots + 1) / 2
	if cap < 1 {
		cap = 1
	}
	return cap
}

// refreshLoads snapshots every node's load signal for the router.
func (c *Cluster) refreshLoads() []Load {
	for n, e := range c.nodes {
		c.loads[n] = Load{Queued: e.QueueDepth(), Active: e.ActiveCount(), Slots: e.Slots()}
	}
	return c.loads
}

// route picks the node for one request among the currently routable nodes.
func (c *Cluster) route(req serving.Request, tick int) (int, error) {
	c.refreshLoads()
	cand := c.routable(tick)
	if len(cand) == 0 {
		return 0, fmt.Errorf("cluster: no routable node at tick %d (all drained or down)", tick)
	}
	n := c.router.Route(req, cand, c.loads)
	for _, ok := range cand {
		if n == ok {
			return n, nil
		}
	}
	return 0, fmt.Errorf("cluster: router %q placed %q on unroutable node %d", c.router.Name(), req.ID, n)
}

// migrate re-places extracted queue entries on surviving nodes, one at a
// time through the router (each placement sees the loads the previous one
// left). The source is already marked drained or failed, so it is not a
// candidate. Suspended-session migrants count toward the migration metric;
// fresh entries are just re-routed paperwork.
func (c *Cluster) migrate(migs []*serving.Migrant, tick int) error {
	for _, mig := range migs {
		c.refreshLoads()
		if len(c.routable(tick)) == 0 {
			// Total outage: every surviving node is down or drained. The
			// migrant parks in the control plane and re-places on the first
			// detector pass that finds a routable node again.
			c.parked = append(c.parked, mig)
			continue
		}
		node, err := c.route(mig.Entry.Req, tick)
		if err != nil {
			return fmt.Errorf("cluster: migrating %q: %w", mig.Entry.Req.ID, err)
		}
		if err := c.nodes[node].Accept(mig, tick); err != nil {
			return err
		}
		if mig.Entry.Sess != nil {
			c.migrations++
			c.migrated[mig.Entry.Index] = true
		} else {
			c.requeues++
			// A re-route can itself land on a dead-but-unsuspected node.
			c.noteStrand(node, tick, mig.Entry.Index, mig.Entry.Req.ID)
		}
	}
	return nil
}

// lifecycle applies the transitions due at tick, in node order, before any
// routing: the administrative drain first, then one failure-detector pass
// (ground-truth crash/restart edges, health transitions, and any
// confirmation-triggered failover — see health.go). A node entering drain
// or confirmed Down never receives that tick's arrivals, and its migrants
// re-route to survivors.
func (c *Cluster) lifecycle(tick int) error {
	for n := range c.nodes {
		if c.cfg.DrainTick > 0 && n == c.cfg.DrainNode && !c.drained[n] && tick >= c.cfg.DrainTick {
			c.drained[n] = true
			c.drains++
			if err := c.migrate(c.nodes[n].ExtractQueue(tick), tick); err != nil {
				return err
			}
		}
	}
	return c.detectTick(tick)
}

// nextLifecycle reports the earliest future lifecycle boundary the clock
// must not skip. While the detector is armed — chaos can draw a crash on
// any tick, or some node is dead or mid-transition — that is every tick;
// otherwise only a pending drain or scripted failure onset pins the clock.
func (c *Cluster) nextLifecycle(tick int) (next int, ok bool) {
	if c.armed() {
		return tick + 1, true
	}
	if c.cfg.DrainTick > tick && !c.drained[c.cfg.DrainNode] {
		next, ok = c.cfg.DrainTick, true
	}
	for _, f := range c.cfg.Failures {
		if f.Tick > tick && (!ok || f.Tick < next) {
			next, ok = f.Tick, true
		}
	}
	return next, ok
}

// Run drains the workload across the cluster and returns the rolled-up
// report. The loop mirrors a single engine's: lifecycle, then routed
// arrivals, then one parallel node tick with index-ordered collection,
// then either a clock increment or a fast-forward to the next event.
func (c *Cluster) Run() (*Report, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: cluster already ran")
	}
	c.ran = true
	wallStart := time.Now() //lint:allow wallclock Wall annotation origin; the cluster advances only on the shared tick clock
	for _, e := range c.nodes {
		if err := e.Begin(); err != nil {
			return nil, err
		}
	}
	rng := tensor.NewRNG(c.cfg.Seed)
	var finished []serving.Finished
	type stepResult struct {
		fin     []serving.Finished
		stepped bool
		err     error
	}
	steps := make([]stepResult, len(c.nodes))
	// place routes one request index onto a node and injects it. During a
	// total outage — every surviving node down or drained — the request
	// waits at the cluster ingress instead and is injected when the
	// detector readmits a node; its SLO clock starts at that later
	// injection tick.
	place := func(idx, tick int) error {
		c.refreshLoads()
		if len(c.routable(tick)) == 0 {
			c.held = append(c.held, idx)
			return nil
		}
		node, err := c.route(c.reqs[idx], tick)
		if err != nil {
			return err
		}
		shed, err := c.nodes[node].Inject(idx, tick, c.order)
		if err != nil {
			return err
		}
		if shed {
			finished = append(finished, serving.Finished{Index: idx, ID: c.reqs[idx].ID, Tick: tick})
		} else {
			c.order++
			c.placements[node]++
			// The detector may still trust a node that is already dead; a
			// placement onto one is stranded until the confirmation
			// re-routes it.
			c.noteStrand(node, tick, idx, c.reqs[idx].ID)
		}
		return nil
	}
	tick, lastProgress := 0, 0
	for !c.w.Done() || c.busy() || len(c.parked) > 0 || len(c.held) > 0 {
		if err := c.lifecycle(tick); err != nil {
			return nil, err
		}
		if len(c.held) > 0 {
			// Drain the ingress hold ahead of this tick's arrivals, in the
			// order the requests were held (place re-holds whatever still
			// finds no routable node).
			held := c.held
			c.held = nil
			for _, idx := range held {
				if err := place(idx, tick); err != nil {
					return nil, err
				}
			}
		}
		arrivals := c.w.Next(tick, finished)
		finished = finished[:0]
		if len(arrivals) > 1 {
			perm := rng.Perm(len(arrivals))
			c.shuffle = c.shuffle[:0]
			for _, j := range perm {
				c.shuffle = append(c.shuffle, arrivals[j])
			}
			arrivals = c.shuffle
		}
		for _, idx := range arrivals {
			if idx < 0 || idx >= len(c.reqs) {
				return nil, fmt.Errorf("cluster: workload %q yielded request index %d outside its %d-request universe",
					c.w.Name(), idx, len(c.reqs))
			}
			if err := place(idx, tick); err != nil {
				return nil, err
			}
		}
		// One cluster tick: every live node steps concurrently — node
		// state is disjoint and recorders are per-node — and results are
		// collected in node index order, so the merged outcome is
		// order-independent of the worker pool. Ground-truth-dead nodes
		// are frozen: their queues and suspended sessions hold state but
		// nothing decodes until restart (or evacuation at confirmation).
		parallel.For(len(c.nodes), 1, func(lo, hi int) {
			for n := lo; n < hi; n++ {
				if c.wasDead[n] {
					steps[n] = stepResult{}
					continue
				}
				fin, stepped, err := c.nodes[n].StepTick(tick)
				steps[n] = stepResult{fin: fin, stepped: stepped, err: err}
			}
		})
		stepped := false
		for n := range steps {
			if steps[n].err != nil {
				return nil, fmt.Errorf("cluster: node %d: %w", n, steps[n].err)
			}
			finished = append(finished, steps[n].fin...)
			stepped = stepped || steps[n].stepped
		}
		if stepped || len(arrivals) > 0 {
			lastProgress = tick
		}
		if tick-lastProgress > c.stallHorizon {
			return nil, fmt.Errorf("cluster: no node progressed for %d ticks (tick %d): work is frozen beyond every restart and probation horizon",
				c.stallHorizon, tick)
		}
		if !stepped {
			next, ok := c.w.NextArrival()
			if ok && next <= tick {
				ok = false
			}
			for _, e := range c.nodes {
				if nt, nok := e.NextEvent(tick); nok && (!ok || nt < next) {
					next, ok = nt, true
				}
			}
			if nt, nok := c.nextLifecycle(tick); nok && (!ok || nt < next) {
				next, ok = nt, true
			}
			if len(finished) > 0 && (!ok || tick+1 < next) {
				next, ok = tick+1, true
			}
			if !ok {
				if c.w.Done() && c.queued() == 0 {
					break
				}
				return nil, fmt.Errorf("cluster: workload %q stalled at tick %d: not done, nothing active, next arrival %d (ok=%v)",
					c.w.Name(), tick, next, ok)
			}
			tick = next
			continue
		}
		tick++
	}
	return c.report(tick, time.Since(wallStart)), nil //lint:allow wallclock feeds Report.Wall only; every other report field is tick-clocked
}

func (c *Cluster) busy() bool {
	for _, e := range c.nodes {
		if e.Busy() {
			return true
		}
	}
	return false
}

func (c *Cluster) queued() int {
	total := len(c.parked) + len(c.held)
	for _, e := range c.nodes {
		total += e.QueueDepth()
	}
	return total
}
