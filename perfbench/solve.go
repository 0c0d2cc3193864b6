package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"dhc"
)

// solveSpec is a workload that runs a fixed pool of instances × solver seeds
// through one reused dhc.Solver. The pool is large, so a run's latency
// median rests on many distinct instances and varies little with the seed.
type solveSpec struct {
	n      int
	graphs int
	seeds  int
	// pass is the prefix of the pool every segment solves before it may
	// stop; the digest and the per-layer counts rest on it.
	pass      int
	opts      dhc.Options
	digestKey string // workloads that must agree byte for byte share a key
}

const (
	// thresholdC is the constant c of every instance's edge probability
	// p = c·ln n / n (δ = 1). With K = 8 partitions, smaller c leaves
	// partitions too sparse for the partition DRA to succeed reliably.
	thresholdC = 32
	// warmupSolves of a fixed instance, the same for every seed, run during
	// set-up, so set-up cost does not vary with the seed.
	warmupSolves = 2
)

type poolItem struct {
	g     int
	seed  uint64
	label string
}

// solveOp is what the traced segment keeps of one solve for the layer
// metrics.
type solveOp struct {
	solveMs, verifyMs float64
	restarts          int
	res               *dhc.Result
}

type solveBench struct {
	spec   solveSpec
	graphs []*dhc.Graph
	pool   []poolItem
	plain  *dhc.Solver
	traced *dhc.Solver // nil unless the run is traced
	phases phaseLog

	refs [][]byte // first record of each pool item
	log  []solveOp
}

// phaseLog turns Observer.OnPhase callbacks into child spans of the solve
// span. Callbacks run on the solving goroutine, and a solve bench has one
// client, so it needs no lock.
type phaseLog struct {
	tr       *tracer
	op       int
	parent   int
	open     int
	restarts int // the run's cumulative OnRestart count
}

func (p *phaseLog) start(tr *tracer, op, parent int) {
	*p = phaseLog{tr: tr, op: op, parent: parent, open: -1}
}

func (p *phaseLog) phase(name string) {
	p.tr.end(p.open)
	p.open = p.tr.begin(p.op, name, p.parent)
}

func (p *phaseLog) finish() {
	p.tr.end(p.open)
	p.open = -1
}

// setupSolve builds the instance pool and the solver(s) and runs the warm-up.
func setupSolve(ctx context.Context, spec solveSpec, seed uint64, traced bool, tr *tracer, gs *graphStats) (*solveBench, error) {
	root := tr.begin(-1, "setup", -1)
	defer tr.end(root)
	b := &solveBench{spec: spec}
	p := dhc.ThresholdP(spec.n, thresholdC, 1)
	build := func(graphSeed uint64) *dhc.Graph {
		sp := tr.begin(-1, "build", root)
		defer tr.end(sp)
		t0 := time.Now()
		g := dhc.NewGNP(spec.n, p, graphSeed)
		gs.add(time.Since(t0), g)
		return g
	}
	for j := 0; j < spec.graphs; j++ {
		b.graphs = append(b.graphs, build(mix(seed, 1, uint64(j))))
		for k := 0; k < spec.seeds; k++ {
			b.pool = append(b.pool, poolItem{g: j, seed: mix(seed, 2, uint64(j*spec.seeds+k)), label: fmt.Sprintf("g%d/s%d", j, k)})
		}
	}
	b.refs = make([][]byte, len(b.pool))
	warm := build(mix(0, 4, 0))

	sp := tr.begin(-1, "construct", root)
	var err error
	if b.plain, err = dhc.NewSolver(dhc.AlgorithmDHC2, spec.opts); err != nil {
		return nil, err
	}
	if traced {
		opts := spec.opts
		opts.Observer = &dhc.Observer{
			OnPhase:   b.phases.phase,
			OnRestart: func(n int) { b.phases.restarts = n },
		}
		if b.traced, err = dhc.NewSolver(dhc.AlgorithmDHC2, opts); err != nil {
			return nil, err
		}
	}
	tr.end(sp)

	sp = tr.begin(-1, "warmup", root)
	defer tr.end(sp)
	for _, s := range []*dhc.Solver{b.plain, b.traced} {
		if s == nil {
			continue
		}
		for i := 0; i < warmupSolves; i++ {
			res, err := s.SolveSeeded(ctx, warm, mix(0, 5, uint64(i)))
			if err == nil {
				err = dhc.Verify(warm, res.Cycle)
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return b, nil
}

func (b *solveBench) clients() int { return 1 }
func (b *solveBench) passOps() int { return b.spec.pass }
func (b *solveBench) close()       {}

func (b *solveBench) op(ctx context.Context, seg *segment, _, i int) (time.Duration, error) {
	s := b.plain
	if seg.tr != nil {
		s = b.traced
	}
	op := seg.nextOp()
	root := seg.tr.begin(op, "op", -1)
	defer seg.tr.end(root)
	return b.solve(ctx, s, seg.tr, op, root, i%len(b.pool))
}

// solve runs pool item i on s, verifies the cycle and compares the result's
// record with the item's first record. Only the solve call is timed.
func (b *solveBench) solve(ctx context.Context, s *dhc.Solver, tr *tracer, op, parent, i int) (time.Duration, error) {
	it := b.pool[i]
	g := b.graphs[it.g]
	sp := tr.begin(op, "solve", parent)
	if tr != nil {
		b.phases.start(tr, op, sp)
	}
	t0 := time.Now()
	res, err := s.SolveSeeded(ctx, g, it.seed)
	lat := time.Since(t0)
	if tr != nil {
		b.phases.finish()
	}
	tr.end(sp)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", it.label, err)
	}
	sp = tr.begin(op, "verify", parent)
	t1 := time.Now()
	err = dhc.Verify(g, res.Cycle)
	verify := time.Since(t1)
	tr.end(sp)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", it.label, err)
	}
	rec := record(res)
	if b.refs[i] == nil {
		b.refs[i] = rec
	} else if string(rec) != string(b.refs[i]) {
		return lat, fmt.Errorf("%s: result differs from the item's first solve", it.label)
	}
	if tr != nil {
		kept := *res
		kept.Cycle = nil // only the counters feed the layer metrics
		b.log = append(b.log, solveOp{solveMs: ms(lat), verifyMs: ms(verify), restarts: b.phases.restarts, res: &kept})
	}
	return lat, nil
}

// digest hashes the records of the pool's first pass, in pool order.
func (b *solveBench) digest() (string, error) {
	for i, r := range b.refs[:b.spec.pass] {
		if r == nil {
			return "", fmt.Errorf("pool item %s never solved", b.pool[i].label)
		}
	}
	return digestOf(b.refs[:b.spec.pass]), nil
}

// record serializes what the determinism contract pins of a result: the
// cycle and the counters the in-process and sharded engines must agree on.
func record(r *dhc.Result) []byte {
	var buf []byte
	for _, v := range r.Cycle.Order() {
		buf = binary.AppendVarint(buf, int64(v))
	}
	buf = binary.AppendVarint(buf, r.Rounds)
	buf = binary.AppendVarint(buf, r.Steps)
	buf = binary.AppendVarint(buf, r.Phase1Rounds)
	buf = binary.AppendVarint(buf, r.Phase2Rounds)
	if c := r.Counters; c != nil {
		for _, v := range []int64{c.RoundsSkipped, c.Invocations, c.Messages, c.Bits, c.MaxMessageBits} {
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mix derives an independent 64-bit seed from the workload seed and a
// (domain, index) pair (splitmix64 finalizer).
func mix(seed, domain, index uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + domain*0xbf58476d1ce4e5b9 + index*0x94d049bb133111eb + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
