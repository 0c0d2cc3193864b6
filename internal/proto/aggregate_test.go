package proto

import (
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// countNode builds a BFS tree for bfsBudget rounds, then runs a Counter.
type countNode struct {
	bfs       *BFSState
	counter   *Counter
	bfsBudget int64
	value     int64
}

func (n *countNode) Init(ctx *congest.Context) {
	n.bfs = NewBFSState(0)
	n.bfs.Start(ctx)
}

func (n *countNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	if ctx.Round() <= n.bfsBudget {
		n.bfs.Absorb(ctx, inbox)
		return
	}
	if n.counter == nil {
		n.counter = NewCounter(n.bfs, n.value, 1)
	}
	n.counter.Tick(ctx, inbox)
	if n.counter.Done() {
		ctx.Halt()
	}
}

func TestCounterSumsTree(t *testing.T) {
	g := graph.GNP(120, 0.07, rng.New(14))
	if !g.Connected() {
		t.Skip("test graph disconnected")
	}
	progs := make([]*countNode, g.N())
	nodes := make([]congest.Node, g.N())
	wantTotal := int64(0)
	for i := range progs {
		progs[i] = &countNode{bfsBudget: int64(g.N()), value: int64(i % 5)}
		wantTotal += int64(i % 5)
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(3); err != nil {
		t.Fatal(err)
	}
	for v, p := range progs {
		if p.counter.Total != wantTotal {
			t.Fatalf("node %d learned total %d, want %d", v, p.counter.Total, wantTotal)
		}
	}
}

func TestCounterCountsNodes(t *testing.T) {
	// Counting with value 1 everywhere yields n — the partition-size use.
	g := graph.Ring(17)
	progs := make([]*countNode, g.N())
	nodes := make([]congest.Node, g.N())
	for i := range progs {
		progs[i] = &countNode{bfsBudget: int64(g.N()), value: 1}
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(4); err != nil {
		t.Fatal(err)
	}
	for v, p := range progs {
		if p.counter.Total != 17 {
			t.Fatalf("node %d counted %d, want 17", v, p.counter.Total)
		}
	}
}

// barrierNode arrives at 3 successive barriers with node-dependent delays and
// records the rounds at which each release reached it.
type barrierNode struct {
	bfs        *BFSState
	barrier    *Barrier
	bfsBudget  int64
	arrivalGap int64
	nextSeq    int32
	releasedAt map[int32]int64
	arrivedAt  map[int32]int64
}

func (n *barrierNode) Init(ctx *congest.Context) {
	n.bfs = NewBFSState(0)
	n.bfs.Start(ctx)
	n.releasedAt = make(map[int32]int64)
	n.arrivedAt = make(map[int32]int64)
}

func (n *barrierNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	if ctx.Round() <= n.bfsBudget {
		n.bfs.Absorb(ctx, inbox)
		return
	}
	if n.barrier == nil {
		n.barrier = NewBarrier(n.bfs, n.bfsBudget)
	}
	n.barrier.Absorb(ctx, inbox)
	// Arrive at barrier k once the previous barrier released, after a
	// node-specific delay.
	if n.nextSeq < 3 {
		prevDone := n.nextSeq == 0 || n.barrier.Released(n.nextSeq-1)
		if prevDone {
			if n.arrivedAt[n.nextSeq] == 0 {
				n.arrivedAt[n.nextSeq] = ctx.Round() + n.arrivalGap
			}
			if ctx.Round() >= n.arrivedAt[n.nextSeq] {
				n.barrier.Arrive(ctx, n.nextSeq)
			}
		}
	}
	for s := int32(0); s < 3; s++ {
		if n.barrier.Released(s) && n.releasedAt[s] == 0 {
			n.releasedAt[s] = ctx.Round()
			if s == n.nextSeq {
				n.nextSeq++
			}
		}
	}
	if n.nextSeq >= 3 {
		ctx.Halt()
	}
}

func TestBarrierSequencing(t *testing.T) {
	g := graph.GNP(80, 0.1, rng.New(19))
	if !g.Connected() {
		t.Skip("test graph disconnected")
	}
	progs := make([]*barrierNode, g.N())
	nodes := make([]congest.Node, g.N())
	for i := range progs {
		progs[i] = &barrierNode{bfsBudget: int64(g.N()), arrivalGap: int64(i % 7)}
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	// Every barrier must release at every node, and no node may see
	// barrier s released before every node arrived at s.
	for s := int32(0); s < 3; s++ {
		var maxArrive, minRelease int64
		minRelease = 1 << 60
		for _, p := range progs {
			if p.arrivedAt[s] > maxArrive {
				maxArrive = p.arrivedAt[s]
			}
			if p.releasedAt[s] == 0 {
				t.Fatalf("barrier %d never released somewhere", s)
			}
			if p.releasedAt[s] < minRelease {
				minRelease = p.releasedAt[s]
			}
		}
		if minRelease < maxArrive {
			t.Fatalf("barrier %d released at round %d before last arrival at %d",
				s, minRelease, maxArrive)
		}
	}
}

// probeNode runs fn with its context at Init and halts: a harness for
// driving one node's primitives by hand.
type probeNode struct{ fn func(ctx *congest.Context) }

func (p *probeNode) Init(ctx *congest.Context) {
	if p.fn != nil {
		p.fn(ctx)
	}
	ctx.Halt()
}

func (p *probeNode) Round(ctx *congest.Context, inbox []congest.Envelope) { ctx.Halt() }

// runProbe runs fn at node probe of g and returns the messages the run sent.
// The bandwidth is raised so a script may send several messages per edge.
func runProbe(t *testing.T, g *graph.Graph, probe int, fn func(ctx *congest.Context)) int64 {
	t.Helper()
	nodes := make([]congest.Node, g.N())
	for v := range nodes {
		nodes[v] = &probeNode{}
	}
	nodes[probe] = &probeNode{fn: fn}
	net, err := congest.NewNetwork(g, nodes, congest.Options{BandwidthBits: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	return counters.Messages
}

func barrierMsg(from graph.NodeID, k wire.Kind, args ...int32) congest.Envelope {
	return congest.Envelope{From: from, Msg: wire.Msg(k, args...)}
}

// TestBarrierResetReusesStorage checks that a barrier run after Reset
// allocates nothing: the per-seq table grown by the first run is reused.
func TestBarrierResetReusesStorage(t *testing.T) {
	// A childless root: arriving releases at once, and nothing is sent.
	tree := &BFSState{Root: 0, Parent: 0}
	var inbox []congest.Envelope
	for s := int32(0); s < 8; s++ {
		inbox = append(inbox, barrierMsg(1, wire.KindBarrierGo, s, 9))
	}
	runProbe(t, graph.Path(2), 0, func(ctx *congest.Context) {
		b := NewBarrier(tree, 3)
		script := func() {
			b.Reset(tree, 3)
			for s := int32(0); s < 8; s++ {
				b.Arrive(ctx, s)
			}
			b.Absorb(ctx, inbox)
		}
		script()
		if avg := testing.AllocsPerRun(20, script); avg != 0 {
			t.Errorf("barrier run after Reset allocates %.2f times", avg)
		}
		for s := int32(0); s < 8; s++ {
			if !b.Released(s) || b.StartRound(s) != 3 {
				t.Errorf("seq %d: released %v at start round %d, want true at 3", s, b.Released(s), b.StartRound(s))
			}
		}
	})
}

// TestBarrierIgnoresOutOfRangeSeq checks that wire seqs outside
// [0, MaxBarrierSeq) are dropped: no growth, no allocation, no message, no
// metered memory, and no effect on in-range barriers.
func TestBarrierIgnoresOutOfRangeSeq(t *testing.T) {
	// Node 1 of the path 0-1-2, with parent 0 and child 2.
	tree := &BFSState{Root: 0, Parent: 0, Level: 1, Children: []graph.NodeID{2}}
	bad := []congest.Envelope{
		barrierMsg(2, wire.KindBarrierUp, -1),
		barrierMsg(2, wire.KindBarrierUp, MaxBarrierSeq),
		barrierMsg(2, wire.KindBarrierUp, 1<<30),
		barrierMsg(0, wire.KindBarrierGo, -5, 7),
		barrierMsg(0, wire.KindBarrierGo, MaxBarrierSeq, 7),
		barrierMsg(0, wire.KindBarrierGo, 1<<31-1, 7),
	}
	msgs := runProbe(t, graph.Path(3), 1, func(ctx *congest.Context) {
		b := NewBarrier(tree, 4)
		if avg := testing.AllocsPerRun(10, func() { b.Absorb(ctx, bad) }); avg != 0 {
			t.Errorf("absorbing out-of-range seqs allocates %.2f times", avg)
		}
		if len(b.seqs) != 0 || cap(b.seqs) != 0 || b.MemoryWords() != 0 {
			t.Errorf("out-of-range seqs grew the barrier: len %d cap %d words %d",
				len(b.seqs), cap(b.seqs), b.MemoryWords())
		}
		for _, s := range []int32{-1, 0, MaxBarrierSeq} {
			if b.Released(s) || b.StartRound(s) != 0 {
				t.Errorf("seq %d reads as released", s)
			}
		}
	})
	if msgs != 0 {
		t.Fatalf("out-of-range seqs sent %d messages", msgs)
	}
}

// TestBarrierMemoryWords pins MemoryWords to its historical meaning: the
// number of (seq, fact) entries recorded, where the facts are "a child
// report arrived", "arrived", "reported up" and "released" — what the
// former per-fact maps held as keys.
func TestBarrierMemoryWords(t *testing.T) {
	tree := &BFSState{Root: 0, Parent: 0, Level: 1, Children: []graph.NodeID{2}}
	msgs := runProbe(t, graph.Path(3), 1, func(ctx *congest.Context) {
		b := NewBarrier(tree, 4)
		steps := []struct {
			name  string
			do    func()
			words int64
		}{
			{"child reports seq 0", func() { b.Absorb(ctx, []congest.Envelope{barrierMsg(2, wire.KindBarrierUp, 0)}) }, 1},
			{"arrive at seq 0, report up", func() { b.Arrive(ctx, 0) }, 3},
			{"arrive at seq 0 again", func() { b.Arrive(ctx, 0) }, 3},
			{"child reports seq 1", func() { b.Absorb(ctx, []congest.Envelope{barrierMsg(2, wire.KindBarrierUp, 1)}) }, 4},
			{"duplicate report for seq 0", func() { b.Absorb(ctx, []congest.Envelope{barrierMsg(2, wire.KindBarrierUp, 0)}) }, 4},
			{"release seq 0", func() { b.Absorb(ctx, []congest.Envelope{barrierMsg(0, wire.KindBarrierGo, 0, 50)}) }, 5},
			{"release seq 3 before arriving", func() { b.Absorb(ctx, []congest.Envelope{barrierMsg(0, wire.KindBarrierGo, 3, 60)}) }, 6},
			{"release seq 0 again", func() { b.Absorb(ctx, []congest.Envelope{barrierMsg(0, wire.KindBarrierGo, 0, 70)}) }, 6},
			{"arrive at seq 1, report up", func() { b.Arrive(ctx, 1) }, 8},
			{"arrive at seq 2, child pending", func() { b.Arrive(ctx, 2) }, 9},
		}
		for _, st := range steps {
			st.do()
			if got := b.MemoryWords(); got != st.words {
				t.Fatalf("after %q: MemoryWords %d, want %d", st.name, got, st.words)
			}
		}
		if !b.Released(0) || b.StartRound(0) != 50 || !b.Released(3) || b.StartRound(3) != 60 {
			t.Fatalf("release state: seq 0 %v@%d, seq 3 %v@%d", b.Released(0), b.StartRound(0), b.Released(3), b.StartRound(3))
		}
		if b.Released(1) || b.Released(2) {
			t.Fatal("seqs 1 and 2 released without a Go")
		}
	})
	// Up for seq 0 and seq 1, and Go for seqs 0 and 3 forwarded to the child.
	if msgs != 4 {
		t.Fatalf("scripted barrier sent %d messages, want 4", msgs)
	}
}
