package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}, {1, 1, 99}} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("p%g of 1..100 = %g with %d beyond, want %g with %d", c.p, v, beyond, c.want, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if v, _ := percentile([]float64{3, 1, 2}, 50); v != 2 {
		t.Errorf("median of {3,1,2} = %g, want 2", v)
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %g, want NaN", v)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if got := minOpsFor(90); got != 100 {
		t.Fatalf("minOpsFor(90) = %d, want 100", got)
	}
	if _, err := tailPercentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was reported")
	}
	if v, err := tailPercentile(seq(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 100 samples = %g, %v; want 90", v, err)
	}
	if _, err := tailPercentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 0, Name: "op", Parent: -1, Start: 0, End: 100},
		{Op: 0, Name: "solve", Parent: 0, Start: 10, End: 30},
		{Op: 0, Name: "verify", Parent: 0, Start: 20, End: 50}, // overlaps solve
		{Op: 0, Name: "phase1", Parent: 1, Start: 12, End: 18},
		{Op: 0, Name: "phase2", Parent: 1, Start: 18, End: 30},
		{Op: 0, Name: "verify", Parent: 0, Start: 70, End: 80},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	want := []int64{100 - 40 - 10, 20 - 18, 30, 6, 12, 10}
	self := selfTimes(spans)
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, i, self[i], w)
		}
	}
	for i, s := range spans {
		if self[i] < 0 || self[i] > s.End-s.Start {
			t.Errorf("self(%s #%d) = %d outside [0, %d]", s.Name, i, self[i], s.End-s.Start)
		}
	}
	byName := selfMillisByName(spans)
	if got := byName["verify"]; math.Abs(got-40e-6) > 1e-12 {
		t.Errorf("verify self = %g ms, want 4e-5", got)
	}
}

func TestCheckNestingRejects(t *testing.T) {
	parent := span{Op: 1, Name: "solve", Parent: -1, Start: 10, End: 20}
	for name, child := range map[string]span{
		"starts early":  {Op: 1, Name: "phase1", Parent: 0, Start: 9, End: 15},
		"ends late":     {Op: 1, Name: "phase1", Parent: 0, Start: 11, End: 21},
		"other op":      {Op: 2, Name: "phase1", Parent: 0, Start: 11, End: 15},
		"backwards":     {Op: 1, Name: "phase1", Parent: 0, Start: 15, End: 12},
		"unknown index": {Op: 1, Name: "phase1", Parent: 7, Start: 11, End: 15},
	} {
		if err := checkNesting([]span{parent, child}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	i := tr.begin(0, "x", -1)
	tr.end(i)
	if i != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin(3, "op", -1)
	child := tr.begin(3, "solve", root)
	tr.end(child)
	tr.end(root)
	if err := checkNesting(tr.snapshot()); err != nil {
		t.Fatal(err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dhc/internal/congest.(*Network).deliver":                                  "congest",
		"dhc/internal/congest.(*Network).deliver.func1":                            "congest",
		"dhc/internal/graph.(*Graph).HasEdge":                                      "graph",
		"dhc/internal/cycle.(*Path).rotate":                                        "cycle",
		"dhc/internal/dist.decodeBatchDelta":                                       "dist",
		"dhc/internal/sweep.BuildInstance":                                         "other",
		"dhc.(*Solver).SolveSeeded":                                                "other",
		"slices.pdqsortCmpFunc[go.shape.int32]":                                    "other",
		"dhc/internal/rotation.sortBy[go.shape.struct { dhc/internal/congest.x }]": "rotation",
		"runtime.mallocgc":                                                         "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                                   "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                  "runtime",
		"internal/runtime/syscall.Syscall6":                                        "syscall",
		"syscall.Syscall":                                                          "syscall",
		"internal/poll.(*FD).Read":                                                 "other",
		"net/http.(*conn).serve":                                                   "other",
		"main.(*solveBench).solve":                                                 "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

const sampleTop = `File: perfbench
Type: cpu
Duration: 10.21s, Total samples = 9.50s (93.05%)
Showing nodes accounting for 9.50s, 100% of 9.50s total
      flat  flat%   sum%        cum   cum%
     2.85s 30.00% 30.00%      3.10s 32.63%  dhc/internal/congest.(*Network).deliver
     1.90s 20.00% 50.00%      1.90s 20.00%  dhc/internal/graph.(*Graph).HasEdge
     0.95s 10.00% 60.00%      1.20s 12.63%  runtime.mallocgc
     0.95s 10.00% 70.00%      0.95s 10.00%  internal/runtime/syscall.Syscall6
     0.95s 10.00% 80.00%      0.95s 10.00%  dhc/internal/congest.(*Shard).deliverOne
     0.95s 10.00% 90.00%      5.00s 52.63%  dhc.(*Solver).solveExact
     0.95s 10.00%   100%      0.95s 10.00%  runtime.(*mheap).alloc
`

func TestSelfShares(t *testing.T) {
	got, err := selfShares(sampleTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"congest": 0.4, "graph": 0.2, "runtime": 0.2, "syscall": 0.1}
	sum := 0.0
	for _, l := range profileLayers {
		v, ok := got[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("share(%s) = %g, want %g", l, v, want[l])
		}
		sum += v
	}
	if math.Abs(sum+got["other"]-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum+got["other"])
	}
	if _, err := selfShares("Type: cpu\n"); err == nil {
		t.Error("empty profile accepted")
	}
}

func TestDigest(t *testing.T) {
	a := digestOf([][]byte{[]byte("ab"), []byte("c")})
	if b := digestOf([][]byte{[]byte("a"), []byte("bc")}); a == b {
		t.Error("record boundaries do not change the digest")
	}
	if b := digestOf([][]byte{[]byte("c"), []byte("ab")}); a == b {
		t.Error("record order does not change the digest")
	}
	if b := digestOf([][]byte{[]byte("ab"), []byte("c")}); a != b {
		t.Error("digest is not deterministic")
	}

	dir := t.TempDir()
	if err := checkDigest(dir, "dhc2-exact-1", a); err != nil {
		t.Fatalf("first store: %v", err)
	}
	if err := checkDigest(dir, "dhc2-exact-1", a); err != nil {
		t.Fatalf("same digest: %v", err)
	}
	if err := checkDigest(dir, "dhc2-exact-1", digestOf(nil)); err == nil {
		t.Fatal("mismatching digest accepted")
	}
	if err := checkDigest(dir, "dhc2-exact-2", digestOf(nil)); err != nil {
		t.Fatalf("other key: %v", err)
	}
}

func TestMixIsStableAndSpreads(t *testing.T) {
	if mix(1, 2, 3) != mix(1, 2, 3) {
		t.Fatal("mix is not deterministic")
	}
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for d := uint64(0); d < 4; d++ {
			for i := uint64(0); i < 64; i++ {
				seen[mix(seed, d, i)] = true
			}
		}
	}
	if len(seen) != 4*4*64 {
		t.Fatalf("mix collided: %d distinct of %d", len(seen), 4*4*64)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json: %v", err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
}
