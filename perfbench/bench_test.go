package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// shrunk returns a set-up that keeps only the first n requests of a
// workload's trace, so the whole benchmark flow runs in seconds.
func shrunk(setup func(uint64) (*prepared, error), n int) func(uint64) (*prepared, error) {
	return func(seed uint64) (*prepared, error) {
		p, err := setup(seed)
		if err != nil {
			return nil, err
		}
		p.entries = p.entries[:n]
		return p, nil
	}
}

func newBench(name string, seconds float64, dir string) *bench {
	return &bench{
		name: name, seed: defaultSeed, seconds: seconds, outDir: dir,
		metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]any{},
	}
}

func TestSpanWorkloadLeavesReportsBitIdentical(t *testing.T) {
	p, err := setupServeCache(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.run(runOpts{prefix: 24})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := p.run(runOpts{prefix: 24, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	want, err := digest(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := digest(traced); got != want {
		t.Fatalf("traced digest %s, untraced %s", got, want)
	}
	if err := reconcile(traced); err != nil {
		t.Fatal(err)
	}
	if err := conserve(traced); err != nil {
		t.Fatal(err)
	}
	ticks := tr.durations("serving.tick")
	if len(ticks) == 0 || len(tr.open) != 0 {
		t.Fatalf("%d tick spans, %d spans left open", len(ticks), len(tr.open))
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	if _, ok := tailPercentile(19); ok {
		t.Fatal("19 samples cannot have a percentile with ten beyond it")
	}
	for n, want := range map[int]float64{20: 0.5, 100: 0.9, 164: 0.93, 1000: 0.99, 5000: 0.99} {
		if p, ok := tailPercentile(n); !ok || math.Abs(p-want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", n, p, ok, want)
		}
	}
	for n := 20; n <= 3000; n++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		v, p := tail(vals)
		beyond := 0
		for _, x := range vals {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: p%.2f leaves %d samples beyond, want ≥ 10", n, p, beyond)
		}
		// One percent higher would leave fewer than ten (unless capped at p99).
		if p < 0.99 {
			if v2 := quantile(vals, p+0.01); n-1-int(v2) >= 10 {
				t.Fatalf("n=%d: p%.2f is not the highest percentile with ten beyond", n, p)
			}
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func printedNames(b *bench) []string {
	var names []string
	for name := range b.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestPrintedMetricNamesMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range []struct {
		name string
		n    int
	}{{"serve-cache", 16}, {"cluster-chaos", 30}} {
		setup := shrunk(setupFuncs[w.name], w.n)
		b := newBench(w.name, 0.01, t.TempDir())
		if err := b.untraced(setup); err != nil {
			t.Fatal(err)
		}
		if got := printedNames(b); !equal(got, endToEnd) {
			t.Errorf("%s --trace 0 printed %v, BENCHMARK.json declares %v", w.name, got, endToEnd)
		}
		if len(b.problems) > 0 {
			t.Errorf("%s --trace 0 checks failed: %v", w.name, b.problems)
		}
		b = newBench(w.name, 0.01, t.TempDir())
		if err := b.traced(setup); err != nil {
			t.Fatal(err)
		}
		if got := printedNames(b); !equal(got, perLayer) {
			t.Errorf("%s --trace 1 printed %v, BENCHMARK.json declares %v", w.name, got, perLayer)
		}
		if len(b.problems) > 0 {
			t.Errorf("%s --trace 1 checks failed: %v", w.name, b.problems)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// protobuf encoding helpers for the profile fixture.
func pbVarint(buf []byte, num int, v uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(num)<<3)
	return binary.AppendUvarint(buf, v)
}

func pbBytes(buf []byte, num int, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(num)<<3|2)
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func TestCPUSharesAggregatePackagesOnFixture(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/tensor.matVecSparseBatchRange",
		"repro/internal/cache.(*GroupCache).pickVictim",
		"repro/internal/serving/obs.(*Recorder).Emit",
		"runtime.mallocgc",
		"sort.Float64s",
		"repro/internal/cluster.(*Cluster).Run",
	}
	var msg []byte
	// Functions 1..6 name strings 5..10.
	for id := uint64(1); id <= 6; id++ {
		var fn []byte
		fn = pbVarint(fn, 1, id)
		fn = pbVarint(fn, 2, id+4)
		msg = pbBytes(msg, 5, fn)
	}
	// Location 10+id holds function id; location 17 inlines tensor (1) into
	// cluster (6), so its leaf is the tensor kernel.
	for id := uint64(1); id <= 6; id++ {
		var loc, line []byte
		loc = pbVarint(loc, 1, 10+id)
		line = pbVarint(line, 1, id)
		loc = pbBytes(loc, 4, line)
		msg = pbBytes(msg, 4, loc)
	}
	var inl, l1, l2 []byte
	inl = pbVarint(inl, 1, 17)
	l1 = pbVarint(l1, 1, 1)
	l2 = pbVarint(l2, 1, 6)
	inl = pbBytes(inl, 4, l1)
	inl = pbBytes(inl, 4, l2)
	msg = pbBytes(msg, 4, inl)
	// Samples: (leaf location, caller location, cpu ns). Location ids are
	// packed; values are [count, nanoseconds].
	for _, s := range []struct{ leaf, caller, ns uint64 }{
		{11, 16, 400}, {17, 16, 100}, {12, 16, 300}, {13, 16, 50}, {14, 12, 100}, {15, 16, 50},
	} {
		var smp, locs, vals []byte
		locs = binary.AppendUvarint(locs, s.leaf)
		locs = binary.AppendUvarint(locs, s.caller)
		vals = binary.AppendUvarint(vals, 1)
		vals = binary.AppendUvarint(vals, s.ns)
		smp = pbBytes(smp, 1, locs)
		smp = pbBytes(smp, 2, vals)
		msg = pbBytes(msg, 2, smp)
	}
	for _, s := range strs {
		msg = pbBytes(msg, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.ticks != 6 {
		t.Errorf("%d profiling ticks, want 6", p.ticks)
	}
	shares := cpuShares(p)
	want := map[string]float64{"tensor": 0.5, "cache": 0.3, "serving": 0.05, "runtime": 0.1, "other": 0.05}
	if len(shares) != len(want) {
		t.Fatalf("shares %v, want %v", shares, want)
	}
	for pkg, w := range want {
		if math.Abs(shares[pkg]-w) > 1e-12 {
			t.Errorf("%s share %v, want %v", pkg, shares[pkg], w)
		}
	}
	if top := topLeaves(p, 1); top[0].Func != strs[5] || math.Abs(top[0].Share-0.5) > 1e-12 {
		t.Errorf("top leaf %+v, want the tensor kernel at 0.5", top[0])
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{name: "run", layer: "serving", start: 0, end: 100, parent: -1},
		{name: "tick", layer: "serving", start: 10, end: 40, parent: 0},
		{name: "tick", layer: "serving", start: 40, end: 90, parent: 0},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if r := got["run"]; r.Count != 1 || math.Abs(r.SelfS-20e-9) > 1e-18 {
		t.Errorf("run %+v, want self 20ns", r)
	}
	if k := got["tick"]; k.Count != 2 || math.Abs(k.SelfS-80e-9) > 1e-18 {
		t.Errorf("tick %+v, want two spans, self 80ns", k)
	}
}
