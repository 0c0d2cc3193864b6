package proto

import (
	"fmt"

	"dhc/internal/congest"
	"dhc/internal/wire"
)

// Counter performs a convergecast sum over a settled BFS tree followed by a
// downward announcement of the total: leaves report their value to their
// parent; internal nodes forward the subtree sum once every child reported;
// the root adds its own value and floods the total down the tree. The DHC
// algorithms use it to count partition sizes (the |V| input of Algorithm 1's
// success test), and Upcast uses the same shape for congestion-free
// aggregation.
//
// Values must fit in int32 (they are vertex counts, bounded by n, so they
// respect the CONGEST word size).
type Counter struct {
	tree    *BFSState
	tag     int32
	value   int64
	reports int
	sum     int64
	sentUp  bool
	// Total is the tree-wide sum, or -1 until the announcement arrives.
	Total int64
}

// NewCounter creates a counter over a final BFS tree. ownValue is this
// node's contribution; tag separates concurrent/sequential counting sessions.
func NewCounter(tree *BFSState, ownValue int64, tag int32) *Counter {
	return &Counter{tree: tree, tag: tag, value: ownValue, Total: -1}
}

// Tick processes one round. Call every round (with that round's inbox) from
// the first round after the tree is final until Total >= 0 at every node;
// that takes at most 2*depth+1 rounds. Only the first call performs
// empty-inbox work (a childless node reports its own value unprompted), so
// under event-driven execution the embedder schedules a wake-up for the
// starting round and lets deliveries drive the rest.
func (c *Counter) Tick(ctx *congest.Context, inbox []congest.Envelope) {
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindCount:
			if env.Msg.Arg(1) == c.tag {
				c.sum += int64(env.Msg.Arg(0))
				c.reports++
			}
		case wire.KindSizeAnnounce:
			if env.Msg.Arg(1) == c.tag && c.Total < 0 {
				c.Total = int64(env.Msg.Arg(0))
				c.announceDown(ctx)
			}
		}
	}
	if !c.sentUp && c.reports == len(c.tree.Children) {
		subtree := c.sum + c.value
		c.sentUp = true
		if c.tree.IsRoot(ctx.ID()) {
			c.Total = subtree
			c.announceDown(ctx)
		} else {
			ctx.Send(c.tree.Parent, wire.Msg(wire.KindCount, int32(subtree), c.tag))
		}
	}
}

func (c *Counter) announceDown(ctx *congest.Context) {
	for _, child := range c.tree.Children {
		ctx.Send(child, wire.Msg(wire.KindSizeAnnounce, int32(c.Total), c.tag))
	}
}

// Done reports whether this node knows the total.
func (c *Counter) Done() bool { return c.Total >= 0 }

// MaxBarrierSeq bounds barrier sequence numbers: a Barrier serves seqs
// 0 .. MaxBarrierSeq-1, and a wire message naming any other seq is ignored
// without growing any state. The algorithms use a handful of barriers per
// run.
const MaxBarrierSeq = 64

// Barrier synchronizes global phase transitions over a network-wide BFS
// tree: every node Arrives at numbered barriers in order; a node reports
// "subtree at barrier s" to its parent once it has arrived and all children
// reported; the root then releases the barrier down the tree. One barrier
// costs O(tree depth) rounds — within the paper's round budgets, which are
// all Ω(diameter).
//
// A Barrier is reusable: Reset rebinds it to a new tree and keeps its
// per-seq storage, so a rerun allocates nothing.
type Barrier struct {
	tree *BFSState
	// seqs[s] is the state of barrier s, grown on demand up to the highest
	// seq seen.
	seqs []barrierSeq
	// entries counts the (seq, fact) pairs recorded — a child report seen,
	// arrived, reported up, released — which is the barrier's retained
	// state for memory metering.
	entries int64
	// ReleaseDelay is added by the root to the release round to produce a
	// common StartRound at which all nodes may begin the next phase; it
	// must be at least the tree depth so the Go flood arrives in time.
	ReleaseDelay int64
}

// barrierSeq is one barrier's state at this node.
type barrierSeq struct {
	startRound   int64
	childReports int32
	arrived      bool
	sentUp       bool
	released     bool
}

// NewBarrier creates barrier state over a final BFS tree. releaseDelay must
// upper-bound the tree depth.
func NewBarrier(tree *BFSState, releaseDelay int64) *Barrier {
	b := &Barrier{}
	b.Reset(tree, releaseDelay)
	return b
}

// Reset readies the barrier for a new run over tree, forgetting every seq
// while keeping the storage.
func (b *Barrier) Reset(tree *BFSState, releaseDelay int64) {
	b.tree = tree
	b.seqs = b.seqs[:0]
	b.entries = 0
	b.ReleaseDelay = releaseDelay
}

// at returns barrier seq's state, growing the table to hold it, or nil when
// seq is outside [0, MaxBarrierSeq).
func (b *Barrier) at(seq int32) *barrierSeq {
	if seq < 0 || seq >= MaxBarrierSeq {
		return nil
	}
	for int(seq) >= len(b.seqs) {
		b.seqs = append(b.seqs, barrierSeq{})
	}
	return &b.seqs[seq]
}

// peek returns barrier seq's state, or nil if it has none yet.
func (b *Barrier) peek(seq int32) *barrierSeq {
	if seq < 0 || int(seq) >= len(b.seqs) {
		return nil
	}
	return &b.seqs[seq]
}

// Arrive marks this node's arrival at barrier seq (idempotent). seq must be
// in [0, MaxBarrierSeq).
func (b *Barrier) Arrive(ctx *congest.Context, seq int32) {
	s := b.at(seq)
	if s == nil {
		panic(fmt.Sprintf("proto: barrier seq %d outside [0,%d)", seq, MaxBarrierSeq))
	}
	if s.arrived {
		return
	}
	s.arrived = true
	b.entries++
	b.maybeSendUp(ctx, seq, s)
}

// Absorb processes barrier traffic for one round. A message whose seq is
// outside [0, MaxBarrierSeq) is ignored.
func (b *Barrier) Absorb(ctx *congest.Context, inbox []congest.Envelope) {
	for i := range inbox {
		m := &inbox[i].Msg
		switch m.Kind {
		case wire.KindBarrierUp:
			seq := m.Arg(0)
			if s := b.at(seq); s != nil {
				if s.childReports == 0 {
					b.entries++
				}
				s.childReports++
				b.maybeSendUp(ctx, seq, s)
			}
		case wire.KindBarrierGo:
			seq := m.Arg(0)
			if s := b.at(seq); s != nil {
				b.release(ctx, seq, s, int64(m.Arg(1)))
			}
		}
	}
}

func (b *Barrier) maybeSendUp(ctx *congest.Context, seq int32, s *barrierSeq) {
	if s.sentUp || !s.arrived || int(s.childReports) != len(b.tree.Children) {
		return
	}
	s.sentUp = true
	b.entries++
	if b.tree.IsRoot(ctx.ID()) {
		b.release(ctx, seq, s, ctx.Round()+b.ReleaseDelay)
	} else if b.tree.Adopted() {
		ctx.Send(b.tree.Parent, wire.Msg(wire.KindBarrierUp, seq))
	}
	// A node the tree never adopted (disconnected from the root) has nowhere
	// to report; it stays silent and the barrier never releases, so the run
	// ends at its round budget — the correct verdict on a network that
	// cannot agree on anything, and one the model allows us to observe.
}

func (b *Barrier) release(ctx *congest.Context, seq int32, s *barrierSeq, startRound int64) {
	if s.released {
		return
	}
	s.released = true
	b.entries++
	s.startRound = startRound
	for _, child := range b.tree.Children {
		ctx.Send(child, wire.Msg(wire.KindBarrierGo, seq, int32(startRound)))
	}
}

// Released reports whether barrier seq has been released at this node.
func (b *Barrier) Released(seq int32) bool {
	s := b.peek(seq)
	return s != nil && s.released
}

// StartRound returns the common round at which the phase following barrier
// seq begins (valid once Released(seq) is true). Every node receives the same
// value, giving the network a synchronized phase boundary.
func (b *Barrier) StartRound(seq int32) int64 {
	if s := b.peek(seq); s != nil {
		return s.startRound
	}
	return 0
}

// MemoryWords estimates retained state for metering: one word per recorded
// fact (child reports seen, arrived, reported up, released) per seq.
func (b *Barrier) MemoryWords() int64 { return b.entries }
