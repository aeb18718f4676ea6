package main

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-fused", "serve-cache", "cluster-chaos"}

// setupFuncs builds a workload's model and inputs from the benchmark seed.
var setupFuncs = map[string]func(seed uint64) (*prepared, error){
	"serve-fused":   setupServeFused,
	"serve-cache":   setupServeCache,
	"cluster-chaos": setupClusterChaos,
}

// prepared is one workload after set-up: the model, the scheme, the engine
// configuration and the generated request trace. Everything the program
// receives is in here; a run only wraps it into a fresh workload and engine.
type prepared struct {
	name    string
	m       *model.Model
	scheme  sparsity.Scheme
	node    serving.Config // engine config (per node for the cluster)
	corpus  []int
	entries []serving.TraceEntry
	fixed   bool // serve the entries as one FixedBatch at tick 0
	nodes   int  // 0 = single engine
	chaos   faults.NodeChaos
	seed    uint64
}

// runOpts varies one run of a prepared workload.
type runOpts struct {
	noFuse bool
	prefix int // >0 serves only the first prefix requests (differential checks)
	// tr, when set, traces the run: an observer is attached, construction
	// and Run are spanned, and the workload is wrapped to span every tick.
	tr *tracer
}

// outcome is one run's result.
type outcome struct {
	eng       *serving.Report // single engine
	clu       *cluster.Report // cluster
	submitted int
	rec       *obs.Recorder // traced engine runs
	events    []obs.Event   // traced cluster runs: the merged node logs
}

// eventLog returns a traced run's event log.
func (o *outcome) eventLog() []obs.Event {
	if o.rec != nil {
		return o.rec.Events()
	}
	return o.events
}

// sessions returns every session record of the run, node by node.
func (o *outcome) sessions() []serving.SessionMetrics {
	if o.eng != nil {
		return o.eng.Sessions
	}
	var out []serving.SessionMetrics
	for _, nr := range o.clu.Nodes {
		out = append(out, nr.Report.Sessions...)
	}
	return out
}

// genTokens draws n uniform token ids from rng.
func genTokens(rng *tensor.RNG, n, vocab int) []int {
	toks := make([]int, n)
	for i := range toks {
		toks[i] = rng.Intn(vocab)
	}
	return toks
}

// mix returns n labels 0..k-1 in equal shares (the first n%k labels get
// one extra), in a seeded random order. Every seed sees the same mix of
// lengths, classes and tenants; the seed decides which request gets which,
// so figures that depend on the mix do not drift from seed to seed.
func mix(rng *tensor.RNG, n, k int) []int {
	out := rng.Perm(n)
	for i := range out {
		out[i] %= k
	}
	return out
}

// poissonTicks draws n arrival ticks of a Poisson process at rate per tick.
func poissonTicks(rng *tensor.RNG, n int, rate float64) []int {
	ticks := make([]int, n)
	t := 0.0
	for i := range ticks {
		t += -math.Log(1-rng.Float64()) / rate
		ticks[i] = int(t)
	}
	return ticks
}

// setupServeFused: the bandwidth-bound random-weight analog of the repo's
// serving benchmarks, one engine draining a closed backlog through the
// fused multi-RHS decode path with one shared cache.
func setupServeFused(seed uint64) (*prepared, error) {
	const win, reqs = 32, 104
	m := model.New(model.Config{
		Name: "bench-bw-sim", Vocab: model.DefaultVocab, Dim: 256, Layers: 2,
		Heads: 4, KVHeads: 2, DFF: 768, MaxSeq: 64, Act: nn.ActSiLU,
	}, 5)
	rng := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 1)
	p := &prepared{
		name: "serve-fused", m: m, scheme: sparsity.NewDIPCA(0.5, 0.2), fixed: true, seed: seed,
		node: serving.Config{
			System:    eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: win},
			Arb:       serving.ArbShared,
			MaxActive: 8, Quantum: 8, Seed: seed,
		},
	}
	lens := mix(rng, reqs, 3) // 2, 3 or 4 windows
	for i := 0; i < reqs; i++ {
		n := win * (2 + lens[i])
		p.entries = append(p.entries, serving.TraceEntry{
			ID: fmt.Sprintf("s%03d", i), Tokens: n, Start: len(p.corpus),
		})
		p.corpus = append(p.corpus, genTokens(rng, n, m.Cfg.Vocab)...)
	}
	return p, nil
}

// setupServeCache: a wide-FFN random-weight analog whose weight cache holds
// under a third of the MLP, served open loop with private per-session
// caches, two SLO classes, EDF admission and deadline preemption.
func setupServeCache(seed uint64) (*prepared, error) {
	const win, reqs, rate, deadline = 16, 100, 0.6, 9
	m := model.New(model.Config{
		Name: "bench-wide-sim", Vocab: model.DefaultVocab, Dim: 32, Layers: 2,
		Heads: 4, KVHeads: 2, DFF: 2048, MaxSeq: 64, Act: nn.ActSiLU,
	}, 7)
	dev := hwsim.A18Like()
	dev.DRAMFraction = 0.3
	rng := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 2)
	p := &prepared{
		name: "serve-cache", m: m, scheme: sparsity.NewDIPCA(0.3, 0.2), seed: seed,
		node: serving.Config{
			System:    eval.SystemConfig{Device: dev, Policy: cache.PolicyLRU, Win: win},
			Arb:       serving.ArbExclusive,
			Sched:     serving.EDF(),
			Preempt:   serving.DeadlinePreempt(),
			MaxActive: 8, Quantum: 8, Seed: seed,
		},
	}
	ticks := poissonTicks(rng, reqs, rate)
	kinds := mix(rng, reqs, 6) // 3, 4 or 5 windows × interactive or batch
	for i := 0; i < reqs; i++ {
		n := win * (3 + kinds[i]%3)
		e := serving.TraceEntry{ID: fmt.Sprintf("r%03d", i), Tick: ticks[i], Tokens: n, Start: len(p.corpus), Class: "batch"}
		if kinds[i] >= 3 {
			e.Class, e.Priority, e.DeadlineTicks = "interactive", 2, deadline
		}
		p.entries = append(p.entries, e)
		p.corpus = append(p.corpus, genTokens(rng, n, m.Cfg.Vocab)...)
	}
	return p, nil
}

// setupClusterChaos: the trained phi3med-sim analog at test scale on the
// corpus test split, served by a three-node cluster under seeded crash and
// heartbeat-drop chaos. Training is part of set-up.
func setupClusterChaos(seed uint64) (*prepared, error) {
	const reqs, rate, deadline = 360, 0.5, 20
	lab := experiments.NewLab(model.ScaleTest)
	m := lab.Model(model.Phi3MedSim)
	toks := lab.TestTokens(0)
	const win = 32
	rng := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 3)
	p := &prepared{
		name: "cluster-chaos", m: m, scheme: sparsity.NewDIPCA(0.5, 0.2), corpus: toks, nodes: 3, seed: seed,
		node: serving.Config{
			System:    eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: win},
			Arb:       serving.ArbFairShare,
			Sched:     serving.EDF(),
			MaxActive: 4, Quantum: 8, Seed: seed,
		},
		chaos: faults.NodeChaos{Seed: rng.Uint64(), CrashRate: 0.002, RecoverTicks: 16, DropRate: 0.02},
	}
	ticks := poissonTicks(rng, reqs, rate)
	lens := mix(rng, reqs, 3)    // 2, 3 or 4 windows
	classes := mix(rng, reqs, 2) // interactive or batch
	tenants := mix(rng, reqs, 4) // three in four requests share the hot tenant
	for i := 0; i < reqs; i++ {
		n := win * (2 + lens[i])
		tenant := "hot"
		if tenants[i] == 0 {
			tenant = fmt.Sprintf("t%03d", i)
		}
		e := serving.TraceEntry{
			ID: fmt.Sprintf("%s/s%03d", tenant, i), Tick: ticks[i], Tokens: n,
			Start: rng.Intn(len(toks) - n + 1), Class: "batch",
		}
		if classes[i] == 0 {
			e.Class, e.Priority, e.DeadlineTicks = "interactive", 2, deadline
		}
		p.entries = append(p.entries, e)
	}
	return p, nil
}

// workload builds a fresh serving.Workload over the prepared trace.
func (p *prepared) workload(prefix int) (serving.Workload, error) {
	entries := p.entries
	if prefix > 0 && prefix < len(entries) {
		entries = entries[:prefix]
	}
	bind := serving.TraceBinder{
		Corpus: p.corpus,
		Scheme: func(string) (sparsity.Scheme, error) { return p.scheme, nil },
	}
	if p.fixed {
		w, err := serving.TraceWorkload(entries, bind)
		if err != nil {
			return nil, err
		}
		return serving.FixedBatch(w.Requests()), nil
	}
	return serving.TraceWorkload(entries, bind)
}

// run serves the prepared workload once: construction plus Run.
func (p *prepared) run(o runOpts) (*outcome, error) {
	w, err := p.workload(o.prefix)
	if err != nil {
		return nil, err
	}
	out := &outcome{submitted: len(w.Requests())}
	layer := "serving"
	if p.nodes > 0 {
		layer = "cluster"
	}
	var ticks *spanWorkload
	if o.tr != nil {
		ticks = wrapTicks(w, o.tr, layer)
		w = ticks
	}
	// spanned runs fn inside a span when tracing.
	spanned := func(name string, fn func() error) error {
		if o.tr == nil {
			return fn()
		}
		s := o.tr.begin(layer, name)
		err := fn()
		ticks.close()
		o.tr.end(s)
		return err
	}
	cfg := p.node
	cfg.NoFuse = o.noFuse
	if p.nodes == 0 {
		if o.tr != nil {
			cfg.Obs = obs.NewRecorder(obs.Config{})
			out.rec = cfg.Obs
		}
		var e *serving.Engine
		if err := spanned("serving.new_engine", func() (err error) {
			e, err = serving.NewEngine(p.m, cfg, w)
			return err
		}); err != nil {
			return nil, err
		}
		if err := spanned("serving.run", func() (err error) {
			out.eng, err = e.Run()
			return err
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	nodes := make([]serving.Config, p.nodes)
	for i := range nodes {
		nodes[i] = cfg
	}
	ccfg := cluster.Config{
		Nodes: nodes, Router: cluster.LeastLoaded(), Seed: p.seed,
		Chaos: p.chaos, Detect: cluster.Detect{Mode: "heartbeat"},
	}
	if o.tr != nil {
		ccfg.Obs = &obs.Config{}
	}
	var c *cluster.Cluster
	if err := spanned("cluster.new", func() (err error) {
		c, err = cluster.New(p.m, ccfg, w)
		return err
	}); err != nil {
		return nil, err
	}
	if err := spanned("cluster.run", func() (err error) {
		out.clu, err = c.Run()
		return err
	}); err != nil {
		return nil, err
	}
	if o.tr != nil {
		out.events = c.Events()
	}
	return out, nil
}
