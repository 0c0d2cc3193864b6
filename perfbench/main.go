// Command perfbench is the repository benchmark. It runs one named workload
// against the dhc module through its public entry points, checks every
// output, and prints the workload's metrics as the last line of standard
// output:
//
//	go run . --workload exact-dhc2 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of one timed segment. With
// --trace 1 it runs an untraced and a traced segment of half the time each
// and prints the per-layer metrics: counts from Result.Counters,
// Result.ShardStats, Observer callbacks, response headers and /stats, span
// timings, and per-package CPU self time. Spans, the CPU profile and the
// digest store are written under --out. See README.md for the workloads and
// for which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"dhc"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// cpus is what the workload needs: its engine workers, shards or
	// client connections, whichever is largest.
	cpus int
	// procs is its GOMAXPROCS. The exact workloads run on one P: their
	// solves are single-threaded (the shards of dist-dhc2 take turns in
	// lock-step rounds), and one P keeps cross-CPU wake-ups and a
	// concurrent collector out of the figures.
	procs int
	// gcPercent, when set, replaces GOGC. serve-mix runs its two clients,
	// their verification and the local copies of every instance in the
	// server's process, so their heap paces the server's collector too. In
	// interleaved runs on a 2-CPU host its throughput ranged 126-153 req/s
	// at the default target and 135-143 req/s at 400.
	gcPercent int
	// solve is set for workloads that run an instance pool through a
	// Solver; serve-mix leaves it nil.
	solve *solveSpec
}

// exactPool is the instance pool the in-process and the sharded exact
// workloads share; their digests must agree.
func exactPool(shards int) *solveSpec {
	opts := dhc.Options{Engine: dhc.EngineExact, Delta: 1, NumColors: 8, Workers: 1}
	if shards > 1 {
		opts.Shards, opts.Transport = shards, "unix"
	}
	return &solveSpec{n: 192, graphs: 64, seeds: 4, pass: 16, opts: opts, digestKey: "dhc2-exact"}
}

var workloads = []workload{
	{name: "exact-dhc2", cpus: 1, procs: 1, solve: exactPool(1)},
	{name: "dist-dhc2", cpus: 2, procs: 1, solve: exactPool(2)},
	{name: "step-dhc2", cpus: 2, procs: 2, solve: &solveSpec{n: 16384, graphs: 4, seeds: 16, pass: 8,
		opts: dhc.Options{Engine: dhc.EngineStep, Delta: 1, NumColors: 8, Workers: 2}, digestKey: "dhc2-step"}},
	{name: "serve-mix", cpus: 2, procs: 2, gcPercent: 400},
}

// setupRuns is how often a run sets its workload up; setup_s is the median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: exact-dhc2, dist-dhc2, step-dhc2 or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "length of the timed region, in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, CPU profiles and the digest store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, info, err := runWorkload(context.Background(), w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(info)
	enc.Encode(res)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is the diagnostic line printed before the result.
type runInfo struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPUShort   bool               `json:"cpu_short,omitempty"`
	SetupS     []float64          `json:"setup_s"`
	Samples    map[string]int     `json:"samples"`
	P90Beyond  int                `json:"p90_beyond"`
	Digest     string             `json:"digest"`
	SelfMs     map[string]float64 `json:"span_self_ms,omitempty"`
	Spans      string             `json:"spans,omitempty"`
	Profile    string             `json:"profile,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

func runWorkload(ctx context.Context, w *workload, seed uint64, d time.Duration, traced bool, out string, stderr io.Writer) (*result, *runInfo, error) {
	ncpu := runtime.NumCPU()
	runtime.GOMAXPROCS(min(ncpu, w.procs))
	if w.gcPercent > 0 {
		debug.SetGCPercent(w.gcPercent)
	}
	info := &runInfo{Workload: w.name, Seed: seed, NumCPU: ncpu, GOMAXPROCS: runtime.GOMAXPROCS(0), Samples: map[string]int{}}
	if ncpu < w.cpus {
		info.CPUShort = true
		fmt.Fprintf(stderr, "perfbench: %s wants %d CPUs, host has %d; figures are not comparable\n", w.name, w.cpus, ncpu)
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	gs := &graphStats{}
	// Every set-up is followed by an untraced segment; the run pools their
	// operations, so a figure rests on three independent set-ups of the
	// workload. A traced run gives half its time to the traced segment,
	// which follows the last set-up.
	// An untraced run reports p90, so its segments together need
	// minOpsFor(90) operations; a traced run reports medians only.
	plainD, minOps := d, (minOpsFor(90)+setupRuns-1)/setupRuns
	if traced {
		plainD, minOps = d/2, 0
	}
	var b bench
	var plains []*segment
	for r := 0; r < setupRuns; r++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if w.solve != nil {
			spec := *w.solve
			spec.opts.Workers = min(spec.opts.Workers, ncpu)
			b, err = setupSolve(ctx, spec, seed, traced, tr, gs)
		} else {
			b, err = setupServe(ctx, seed, min(2, ncpu), min(2, ncpu), tr, gs)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		info.SetupS = append(info.SetupS, time.Since(t0).Seconds())

		seg, err := runSegment(ctx, b, "plain", plainD/setupRuns, minOps, nil)
		if err != nil {
			b.close()
			return nil, nil, err
		}
		digest, key, err := benchDigest(b, w, seed)
		if err == nil {
			err = checkDigest(filepath.Join(out, "digests"), key, digest)
		}
		if err != nil {
			seg.fail(b.passOps()*b.clients(), fmt.Errorf("digest: %w", err))
		}
		info.Digest = digest
		plains = append(plains, seg)
	}
	defer b.close()
	plain := merge(plains)
	info.Samples["plain"] = plain.attempted
	_, info.P90Beyond = percentile(plain.latMs, 90)
	segs := []*segment{plain}

	var (
		metrics map[string]float64
		defs    []metricDef
		err     error
	)
	if !traced {
		defs = endToEndMetrics
		if metrics, err = plain.endToEnd(median(info.SetupS)); err != nil {
			return nil, nil, err
		}
	} else {
		defs = layerMetrics
		tag := fmt.Sprintf("%s-%d", w.name, seed)
		info.Profile = filepath.Join(out, "cpu-"+tag+".pprof")
		info.Spans = filepath.Join(out, "spans-"+tag+".json")
		in := layerInputs{plain: plain, graphs: gs}
		sb, _ := b.(*serveBench)
		if sb != nil {
			in.serve = sb
			if in.statsBefore, err = sb.getStats(); err != nil {
				return nil, nil, fmt.Errorf("GET /stats: %w", err)
			}
		} else {
			in.solve = b.(*solveBench)
		}
		if in.traced, err = profiledSegment(ctx, b, d-plainD, tr, info.Profile); err != nil {
			return nil, nil, err
		}
		segs = append(segs, in.traced)
		if sb != nil {
			if in.statsAfter, err = sb.getStats(); err != nil {
				return nil, nil, fmt.Errorf("GET /stats: %w", err)
			}
		}
		in.spans = tr.snapshot()
		if err := checkNesting(in.spans); err != nil {
			in.traced.fail(1, fmt.Errorf("spans: %w", err))
		}
		info.SelfMs = selfMillisByName(in.spans)
		if err := tr.write(info.Spans); err != nil {
			return nil, nil, err
		}
		if in.shares, err = profileShares(info.Profile, out); err != nil {
			return nil, nil, err
		}
		info.Samples["traced"] = in.traced.attempted
		metrics = computeLayers(in)
	}

	res := &result{Metrics: map[string]value{}}
	for _, s := range segs {
		res.Attempted += s.attempted
		res.Failed += s.failed
		info.Errors = append(info.Errors, s.errs...)
	}
	res.Correct = res.Failed == 0
	for _, m := range defs {
		v, ok := metrics[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not computed", m.name)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	sort.Strings(info.Errors)
	return res, info, nil
}

// profiledSegment runs the traced segment under the CPU profiler.
func profiledSegment(ctx context.Context, b bench, d time.Duration, tr *tracer, path string) (*segment, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	seg, err := runSegment(ctx, b, "traced", d, 0, tr)
	pprof.StopCPUProfile()
	return seg, errors.Join(err, f.Close())
}

// benchDigest returns the digest of the plain segment's first pass and the
// key it is stored under.
func benchDigest(b bench, w *workload, seed uint64) (digest, key string, err error) {
	switch b := b.(type) {
	case *solveBench:
		digest, err = b.digest()
		sp := w.solve
		key = fmt.Sprintf("%s-n%d-%dx%d-pass%d", sp.digestKey, sp.n, sp.graphs, sp.seeds, sp.pass)
	case *serveBench:
		digest, err = b.digest()
		key = "serve-mix"
	}
	return digest, fmt.Sprintf("%s-%d", key, seed), err
}
