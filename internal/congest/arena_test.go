package congest

import (
	"fmt"
	"reflect"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// appendNode broadcasts its id at Init; in round 1 it keeps a copy of its
// inbox and the inbox slice itself, appends to the inbox, and sends nothing.
type appendNode struct {
	seen []Envelope // copy of the round-1 inbox taken before appending
	got  []Envelope // the round-1 inbox as delivered (aliases the arena)
}

func (a *appendNode) Init(ctx *Context) {
	ctx.WakeEvery(0)
	ctx.Broadcast(wire.Msg(wire.KindToken, int32(ctx.ID())))
}

func (a *appendNode) Round(ctx *Context, inbox []Envelope) {
	a.seen = append([]Envelope(nil), inbox...)
	a.got = inbox
	for i := 0; i < 4; i++ {
		inbox = append(inbox, Envelope{From: -1, Msg: wire.Msg(wire.KindToken, -1)})
	}
}

// TestInboxAppendLeavesOthersIntact checks that an inbox's capacity is
// clipped to its arena range: every node appends to its own inbox, and every
// inbox still holds exactly what was delivered (one token per neighbour, in
// sender order). Under -race at Workers 4, an unclipped capacity would also
// show as concurrent writes into a neighbour's range.
func TestInboxAppendLeavesOthersIntact(t *testing.T) {
	g := graph.GNP(40, 0.3, rng.New(12))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			progs := make([]*appendNode, g.N())
			nodes := make([]Node, g.N())
			for v := range progs {
				progs[v] = &appendNode{}
				nodes[v] = progs[v]
			}
			net, err := NewNetwork(g, nodes, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			_, exec, _ := net.newRun(1)
			if err := exec.step(0, true); err != nil {
				t.Fatal(err)
			}
			// Round 1 sends nothing, so its delivery leaves the arena as
			// round 0's delivery filled it.
			if err := exec.step(1, false); err != nil {
				t.Fatal(err)
			}
			for v, p := range progs {
				var want []Envelope
				for _, u := range g.Neighbors(graph.NodeID(v)) {
					want = append(want, Envelope{From: u, Msg: wire.Msg(wire.KindToken, int32(u))})
				}
				if !reflect.DeepEqual(p.seen, want) {
					t.Fatalf("node %d received %v, want %v", v, p.seen, want)
				}
				if !reflect.DeepEqual(p.got, want) {
					t.Fatalf("node %d inbox changed by another node's append: %v, want %v", v, p.got, want)
				}
				if cap(p.got) != len(p.got) {
					t.Fatalf("node %d inbox capacity %d exceeds its length %d", v, cap(p.got), len(p.got))
				}
			}
		})
	}
}

// hookMixNode sends one broadcast and one point-to-point message to its
// lowest neighbour at Init, then records its round-1 inbox and halts.
type hookMixNode struct{ inbox []Envelope }

func (h *hookMixNode) Init(ctx *Context) {
	ctx.Broadcast(wire.Msg(wire.KindToken, int32(ctx.ID())))
	if nbrs := ctx.Neighbors(); len(nbrs) > 0 {
		ctx.Send(nbrs[0], wire.Msg(wire.KindToken, 1000+int32(ctx.ID())))
	}
}

func (h *hookMixNode) Round(ctx *Context, inbox []Envelope) {
	h.inbox = append(h.inbox, inbox...)
	ctx.Halt()
}

// TestFaultHookRewritesAndDropsInArena checks hooked delivery into the
// arena: the hook sees every copy exactly once, dropped copies vanish, and
// rewritten copies land in sender order carrying the rewrite.
func TestFaultHookRewritesAndDropsInArena(t *testing.T) {
	g := graph.GNP(30, 0.25, rng.New(4))
	drop := func(from, to graph.NodeID) bool { return (from+to)%4 == 0 }
	rewrite := func(from, to graph.NodeID) bool { return (from*to)%3 == 0 }
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			seen := map[[3]int32]int{}
			calls := 0
			opts := Options{
				Workers:       workers,
				BandwidthBits: 1 << 20,
				FaultHook: func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
					calls++
					seen[[3]int32{int32(from), int32(to), m.Arg(0)}]++
					if drop(from, to) {
						return m, false
					}
					if rewrite(from, to) {
						m.Args[0] = -m.Args[0] - 1
					}
					return m, true
				},
			}
			progs := make([]*hookMixNode, g.N())
			nodes := make([]Node, g.N())
			for v := range progs {
				progs[v] = &hookMixNode{}
				nodes[v] = progs[v]
			}
			net, err := NewNetwork(g, nodes, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(2); err != nil {
				t.Fatal(err)
			}
			copies := 0
			for v := range progs {
				to := graph.NodeID(v)
				var want []Envelope
				for _, u := range g.Neighbors(to) {
					// u's broadcast copy, then its Send if v is u's lowest
					// neighbour: the order u queued them.
					args := []int32{int32(u)}
					if g.Neighbors(u)[0] == to {
						args = append(args, 1000+int32(u))
					}
					for _, a := range args {
						copies++
						if n := seen[[3]int32{int32(u), int32(to), a}]; n != 1 {
							t.Fatalf("hook saw copy %d->%d (%d) %d times, want once", u, to, a, n)
						}
						if drop(u, to) {
							continue
						}
						if rewrite(u, to) {
							a = -a - 1
						}
						want = append(want, Envelope{From: u, Msg: wire.Msg(wire.KindToken, a)})
					}
				}
				if !reflect.DeepEqual(progs[v].inbox, want) {
					t.Fatalf("node %d inbox %v, want %v", v, progs[v].inbox, want)
				}
			}
			if calls != copies {
				t.Fatalf("hook called %d times for %d copies", calls, copies)
			}
		})
	}
}

// burstNode ping-pongs one token with its peer every round and broadcasts
// once, in round burst, to every neighbour.
type burstNode struct {
	peer  graph.NodeID
	burst int64
}

func (b *burstNode) Init(ctx *Context) {
	ctx.WakeEvery(0)
	ctx.Send(b.peer, wire.Msg(wire.KindToken, 1))
}

func (b *burstNode) Round(ctx *Context, inbox []Envelope) {
	if len(inbox) > 0 {
		ctx.Send(b.peer, wire.Msg(wire.KindToken, 1))
	}
	if ctx.Round() == b.burst {
		ctx.Broadcast(wire.Msg(wire.KindToken, 2))
	}
}

// TestArenaGrowthThenSteadyZeroAllocs checks the arena growth policy: a
// round whose volume exceeds every earlier round grows the arena once, and
// the steady rounds after it reuse that storage. At Workers 1 a steady round
// allocates nothing at all; at Workers 4 the executor's worker pool
// allocates per round by design, so there the arena's backing array must
// simply stay put.
func TestArenaGrowthThenSteadyZeroAllocs(t *testing.T) {
	g := graph.Complete(32)
	const burst = 40
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nodes := make([]Node, g.N())
			for v := range nodes {
				nodes[v] = &burstNode{peer: graph.NodeID(v ^ 1), burst: burst}
			}
			net, err := NewNetwork(g, nodes, Options{Workers: workers, BandwidthBits: 1 << 20, MaxRounds: 1 << 40})
			if err != nil {
				t.Fatal(err)
			}
			state, exec, counters := net.newRun(1)
			if err := exec.step(0, true); err != nil {
				t.Fatal(err)
			}
			round := int64(0)
			stepOnce := func() {
				round++
				if err := exec.step(round, false); err != nil {
					t.Fatal(err)
				}
			}
			for round < burst-1 {
				stepOnce()
			}
			before := len(state.arena)
			stepOnce() // the burst round: 32*31 broadcast copies on top of the ping-pong
			if len(state.arena) <= before {
				t.Fatalf("burst round did not grow the arena (%d -> %d envelopes)", before, len(state.arena))
			}
			for i := 0; i < 8; i++ {
				stepOnce()
			}
			backing := &state.arena[0]
			msgs := counters.Messages
			if workers == 1 {
				if avg := testing.AllocsPerRun(200, stepOnce); avg != 0 {
					t.Fatalf("steady rounds after the burst allocate %.2f times per round", avg)
				}
			} else {
				for i := 0; i < 200; i++ {
					stepOnce()
				}
			}
			if &state.arena[0] != backing {
				t.Fatal("steady rounds reallocated the arena")
			}
			if counters.Messages == msgs {
				t.Fatal("network went quiet during the measurement")
			}
		})
	}
}
