package congest

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// fanNode exercises every multicast shape for `rounds` rounds and records
// its inboxes. With multicast set it sends through Multicast/Broadcast;
// otherwise it queues the same copies with the equivalent Send loops, the
// reference the fan path must match.
type fanNode struct {
	multicast bool
	rounds    int64
	scope     Scope
	log       []Envelope
}

func (f *fanNode) Init(ctx *Context) { f.send(ctx) }

func (f *fanNode) Round(ctx *Context, inbox []Envelope) {
	f.log = append(f.log, Envelope{From: -1, Msg: wire.Msg(wire.KindToken, int32(ctx.Round()))})
	f.log = append(f.log, inbox...)
	if ctx.Round() >= f.rounds {
		ctx.Halt()
		return
	}
	f.send(ctx)
}

func (f *fanNode) send(ctx *Context) {
	v, r := int(ctx.ID()), int(ctx.Round())
	nbrs := ctx.Neighbors()
	if len(nbrs) == 0 {
		return
	}
	keep := func(port int) bool { return (port+v+r)%3 != 0 }
	except := graph.NodeID(-1)
	if r%2 == 1 {
		except = nbrs[(v+r)%len(nbrs)]
	}
	sub := wire.Msg(wire.KindToken, int32(v), int32(r))
	all := wire.Msg(wire.KindBroadcast, int32(r))
	one := wire.Msg(wire.KindCandidate, int32(v))
	if f.multicast {
		f.scope = ctx.FilterNeighbors(f.scope, keep)
		ctx.Multicast(f.scope, except, sub)
		ctx.Send(nbrs[r%len(nbrs)], one)
		if r%4 == 0 {
			ctx.Broadcast(all)
		}
		return
	}
	for port, nb := range nbrs {
		if keep(port) && nb != except {
			ctx.Send(nb, sub)
		}
	}
	ctx.Send(nbrs[r%len(nbrs)], one)
	if r%4 == 0 {
		for _, nb := range nbrs {
			ctx.Send(nb, all)
		}
	}
}

func newFanNodes(n int, multicast bool, rounds int64) ([]*fanNode, []Node) {
	progs := make([]*fanNode, n)
	nodes := make([]Node, n)
	for i := range progs {
		progs[i] = &fanNode{multicast: multicast, rounds: rounds}
		nodes[i] = progs[i]
	}
	return progs, nodes
}

// runFan runs fanNode programs on g and returns their logs and counters.
func runFan(t *testing.T, g *graph.Graph, multicast bool, opts Options) ([][]Envelope, *metrics.Counters, error) {
	t.Helper()
	progs, nodes := newFanNodes(g.N(), multicast, 9)
	net, err := NewNetwork(g, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, runErr := net.Run(5)
	logs := make([][]Envelope, len(progs))
	for i, p := range progs {
		logs[i] = p.log
	}
	return logs, c, runErr
}

// sameCounters compares every counter, per-node entries included.
func sameCounters(a, b *metrics.Counters) bool {
	return fmt.Sprintf("%+v", *a) == fmt.Sprintf("%+v", *b)
}

// TestMulticastMatchesSendLoop checks the fan path against the Send loop it
// replaces: the same inbox contents in the same order at every node and
// round, and the same counters, sequentially and on the parallel executor.
func TestMulticastMatchesSendLoop(t *testing.T) {
	g := graph.GNP(48, 0.3, rng.New(3))
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers, BandwidthBits: 1 << 20}
		wantLogs, wantCounters, err := runFan(t, g, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotLogs, gotCounters, err := runFan(t, g, true, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotLogs, wantLogs) {
			t.Fatalf("workers=%d: multicast inboxes differ from the Send loop's", workers)
		}
		if !sameCounters(gotCounters, wantCounters) {
			t.Fatalf("workers=%d: counters differ:\nmulticast %+v\nsend loop %+v", workers, *gotCounters, *wantCounters)
		}
	}
}

// scriptNode runs a fixed Init action, then records its inboxes until it
// halts at round `halt` (0 halts at Init).
type scriptNode struct {
	init   func(ctx *Context)
	halt   int64
	inbox  []Envelope
	rounds int
}

func (s *scriptNode) Init(ctx *Context) {
	if s.init != nil {
		s.init(ctx)
	}
	if s.halt == 0 {
		ctx.Halt()
	}
}

func (s *scriptNode) Round(ctx *Context, inbox []Envelope) {
	s.rounds++
	s.inbox = append(s.inbox, inbox...)
	if ctx.Round() >= s.halt {
		ctx.Halt()
	}
}

func runScript(t *testing.T, g *graph.Graph, progs []*scriptNode, opts Options) error {
	t.Helper()
	nodes := make([]Node, len(progs))
	for i, p := range progs {
		nodes[i] = p
	}
	net, err := NewNetwork(g, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = net.Run(1)
	return err
}

// star returns the star with centre 0 and leaves 1..k.
func star(k int) *graph.Graph {
	b := graph.NewBuilder(k + 1)
	for v := 1; v <= k; v++ {
		b.AddEdge(0, graph.NodeID(v))
	}
	return b.Build()
}

func TestMulticastSkipsExcept(t *testing.T) {
	g := star(4)
	progs := []*scriptNode{
		{init: func(ctx *Context) { ctx.Multicast(ctx.AllNeighbors(), 2, wire.Msg(wire.KindToken, 7)) }, halt: 1},
		{halt: 1}, {halt: 1}, {halt: 1}, {halt: 1},
	}
	if err := runScript(t, g, progs, Options{}); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 4; v++ {
		want := 1
		if v == 2 {
			want = 0
		}
		if got := len(progs[v].inbox); got != want {
			t.Fatalf("leaf %d received %d messages, want %d", v, got, want)
		}
	}
}

// TestMulticastHaltedRecipientMeteredButDropped checks that a copy for a
// halted node is metered like a Send to it but never delivered.
func TestMulticastHaltedRecipientMeteredButDropped(t *testing.T) {
	g := star(3)
	for _, multicast := range []bool{false, true} {
		// The centre sends in round 1, after leaf 1 halted at Init.
		progs := []*scriptNode{nil, {halt: 0}, {halt: 2}, {halt: 2}}
		nodes := []Node{&fanOnce{multicast: multicast}, progs[1], progs[2], progs[3]}
		net, err := NewNetwork(g, nodes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Messages != 3 || c.Bits != 3*net.Codec().Bits(wire.Msg(wire.KindToken, 1)) {
			t.Fatalf("multicast=%v: metered %d messages / %d bits, want 3 copies", multicast, c.Messages, c.Bits)
		}
		if progs[1].rounds != 0 || len(progs[2].inbox) != 1 || len(progs[3].inbox) != 1 {
			t.Fatalf("multicast=%v: halted leaf ran %d times; live leaves got %d and %d messages",
				multicast, progs[1].rounds, len(progs[2].inbox), len(progs[3].inbox))
		}
	}
}

// fanOnce sends one token to every neighbour in round 1, by Broadcast or by
// a Send loop, then halts.
type fanOnce struct{ multicast bool }

func (f *fanOnce) Init(ctx *Context) { ctx.WakeAt(1) }
func (f *fanOnce) Round(ctx *Context, inbox []Envelope) {
	m := wire.Msg(wire.KindToken, 1)
	if f.multicast {
		ctx.Broadcast(m)
	} else {
		for _, nb := range ctx.Neighbors() {
			ctx.Send(nb, m)
		}
	}
	ctx.Halt()
}

// TestMulticastFaultHookSeesEveryCopy checks that the hook is called once
// per expanded copy, in Send-loop order, and that its drops and rewrites
// apply per copy.
func TestMulticastFaultHookSeesEveryCopy(t *testing.T) {
	g := graph.GNP(24, 0.4, rng.New(8))
	run := func(multicast bool) ([]string, [][]Envelope, *metrics.Counters) {
		var calls []string
		opts := Options{
			BandwidthBits: 1 << 20,
			FaultHook: func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
				calls = append(calls, fmt.Sprintf("%d:%d->%d:%s", round, from, to, m))
				if (int(from)+int(to)+int(round))%5 == 0 {
					return m, false
				}
				if to%3 == 0 {
					m.Args[0]++
				}
				return m, true
			},
		}
		logs, counters, err := runFan(t, g, multicast, opts)
		if err != nil {
			t.Fatal(err)
		}
		return calls, logs, counters
	}
	wantCalls, wantLogs, wantCounters := run(false)
	gotCalls, gotLogs, gotCounters := run(true)
	if !reflect.DeepEqual(gotCalls, wantCalls) {
		t.Fatalf("hook saw %d copies from multicast, %d from the Send loop (or in another order)",
			len(gotCalls), len(wantCalls))
	}
	if !reflect.DeepEqual(gotLogs, wantLogs) || !sameCounters(gotCounters, wantCounters) {
		t.Fatalf("hooked delivery differs:\nmulticast %+v\nsend loop %+v", *gotCounters, *wantCounters)
	}
}

// TestSendAndMulticastShareBandwidth checks that a Send and a Multicast to
// the same neighbour in one round draw on one per-edge budget and fail with
// the same ErrBandwidth as two Sends.
func TestSendAndMulticastShareBandwidth(t *testing.T) {
	g := graph.Path(3) // IDBits 2: budget 16 bits, a one-arg message is 10
	m := wire.Msg(wire.KindToken, 1)
	cases := map[string]func(ctx *Context){
		"send+send":      func(ctx *Context) { ctx.Send(1, m); ctx.Send(1, m) },
		"send+multicast": func(ctx *Context) { ctx.Send(1, m); ctx.Multicast(ctx.AllNeighbors(), -1, m) },
		"multicast+send": func(ctx *Context) { ctx.Broadcast(m); ctx.Send(1, m) },
	}
	var want string
	for _, name := range []string{"send+send", "send+multicast", "multicast+send"} {
		progs := []*scriptNode{{init: cases[name], halt: 1}, {halt: 1}, {halt: 1}}
		err := runScript(t, g, progs, Options{})
		if !errors.Is(err, ErrBandwidth) {
			t.Fatalf("%s: got %v, want ErrBandwidth", name, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("%s: error %q, want %q", name, err, want)
		}
	}
	progs := []*scriptNode{{init: func(ctx *Context) { ctx.Broadcast(m) }, halt: 1}, {halt: 1}, {halt: 1}}
	if err := runScript(t, g, progs, Options{}); err != nil {
		t.Fatalf("a single multicast copy per edge failed: %v", err)
	}
}

// TestMulticastEmptyScopeQueuesNothing checks that empty scopes leave the
// outbox untouched.
func TestMulticastEmptyScopeQueuesNothing(t *testing.T) {
	g := star(3)
	var queued []int
	progs := []*scriptNode{{init: func(ctx *Context) {
		ctx.Multicast(Scope{}, -1, wire.Msg(wire.KindToken, 1))
		queued = append(queued, len(ctx.outbox))
		none := ctx.FilterNeighbors(Scope{}, func(int) bool { return false })
		ctx.Multicast(none, -1, wire.Msg(wire.KindToken, 1))
		queued = append(queued, len(ctx.outbox), len(none.Nodes()))
	}, halt: 1}, {halt: 1}, {halt: 1}, {halt: 1}}
	if err := runScript(t, g, progs, Options{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(queued, []int{0, 0, 0}) {
		t.Fatalf("empty scopes queued outbox entries: %v", queued)
	}
}

// TestMulticastForeignScopeFails checks that a scope only works for the
// node that built it.
func TestMulticastForeignScopeFails(t *testing.T) {
	g := graph.Path(3)
	var leaked Scope
	progs := []*scriptNode{
		{init: func(ctx *Context) { leaked = ctx.AllNeighbors() }, halt: 1},
		{init: func(ctx *Context) { ctx.Multicast(leaked, -1, wire.Msg(wire.KindToken, 1)) }, halt: 1},
		{halt: 1},
	}
	if err := runScript(t, g, progs, Options{}); !errors.Is(err, ErrNotNeighbor) {
		t.Fatalf("got %v, want ErrNotNeighbor", err)
	}
}

// TestFilterNeighborsReusesStorage checks that refilling an owned scope
// keeps its backing array and never writes through an AllNeighbors view.
func TestFilterNeighborsReusesStorage(t *testing.T) {
	g := graph.Complete(6)
	row := append([]graph.NodeID(nil), g.Neighbors(0)...)
	var firstPtr, secondPtr *graph.NodeID
	var sizes []int
	progs := []*scriptNode{{init: func(ctx *Context) {
		s := ctx.FilterNeighbors(ctx.AllNeighbors(), func(port int) bool { return port%2 == 0 })
		firstPtr = &s.Nodes()[0]
		sizes = append(sizes, len(s.Nodes()))
		s = ctx.FilterNeighbors(s, func(port int) bool { return port > 0 })
		secondPtr = &s.Nodes()[0]
		sizes = append(sizes, len(s.Nodes()))
	}, halt: 1}}
	for v := 1; v < 6; v++ {
		progs = append(progs, &scriptNode{halt: 1})
	}
	if err := runScript(t, g, progs, Options{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sizes, []int{3, 4}) {
		t.Fatalf("scope sizes %v, want [3 4]", sizes)
	}
	if firstPtr != secondPtr {
		t.Fatal("refilled scope did not reuse its storage")
	}
	if !reflect.DeepEqual(g.Neighbors(0), row) {
		t.Fatal("FilterNeighbors wrote into the adjacency row")
	}
}

// partitionFlooder floods one payload within its color class: node 0
// originates, and every node forwards the first copy it hears to its
// same-color neighbours except the sender.
type partitionFlooder struct {
	colors []int32
	scope  Scope
	seen   bool
	got    int
}

func (p *partitionFlooder) Init(ctx *Context) {
	own := p.colors[ctx.ID()]
	nbrs := ctx.Neighbors()
	p.scope = ctx.FilterNeighbors(p.scope, func(port int) bool { return p.colors[nbrs[port]] == own })
	if ctx.ID() == 0 {
		p.seen = true
		ctx.Multicast(p.scope, -1, wire.Msg(wire.KindBroadcast, 7, 3))
	}
}

func (p *partitionFlooder) Round(ctx *Context, inbox []Envelope) {
	for _, env := range inbox {
		p.got++
		if !p.seen {
			p.seen = true
			ctx.Multicast(p.scope, env.From, env.Msg)
		}
	}
	if ctx.Round() >= 12 {
		ctx.Halt()
	}
}

// TestScopedMulticastStaysInPartition floods within one color class of a
// complete graph: every same-color node hears the payload and forwards it
// once, and no other node receives anything.
func TestScopedMulticastStaysInPartition(t *testing.T) {
	g := graph.Complete(10)
	colors := make([]int32, g.N())
	for v := range colors {
		colors[v] = int32(v % 2)
	}
	progs := make([]*partitionFlooder, g.N())
	nodes := make([]Node, g.N())
	for v := range progs {
		progs[v] = &partitionFlooder{colors: colors}
		nodes[v] = progs[v]
	}
	net, err := NewNetwork(g, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range progs {
		inScope := colors[v] == 0
		if inScope != p.seen {
			t.Fatalf("node %d (color %d) saw the payload: %v", v, colors[v], p.seen)
		}
		if !inScope && p.got != 0 {
			t.Fatalf("out-of-scope node %d received %d messages", v, p.got)
		}
	}
	// The origin reaches its 4 same-color peers, and each of them forwards
	// to the 3 peers other than the origin and itself.
	if c.Messages != 4+4*3 {
		t.Fatalf("flood sent %d messages, want %d", c.Messages, 4+4*3)
	}
}
