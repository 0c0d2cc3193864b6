package congest

import (
	"reflect"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/rng"
)

// runFanSharded runs fanNode multicast programs as k Shards driven in lock
// step the way the distributed coordinator drives them: every shard steps,
// each shard's cross-shard batch is routed to its destination shards in
// shard order, and every shard delivers. The programs never call a wake
// API, so every round is dense.
func runFanSharded(t *testing.T, g *graph.Graph, k int, opts Options) (logs [][]Envelope, messages, bits, routed int64) {
	t.Helper()
	n := g.N()
	progs, nodes := newFanNodes(n, true, 9)
	shards := make([]*Shard, k)
	for i := range shards {
		lo, hi := i*n/k, (i+1)*n/k
		sh, err := NewShard(g, nodes[lo:hi], opts, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sh.Seed(5)
		shards[i] = sh
	}
	outs := make([][]Routed, k)
	for round := int64(0); ; round++ {
		live := 0
		for i, sh := range shards {
			out, rep, err := sh.Step(round, round == 0, true)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = append(outs[i][:0], out...)
			live += rep.Live
		}
		for j, sh := range shards {
			var inbound []Routed
			for i := range shards {
				if i == j {
					continue
				}
				for _, r := range outs[i] {
					if int(r.To) >= sh.Lo() && int(r.To) < sh.Hi() {
						inbound = append(inbound, r)
					}
				}
			}
			if err := sh.Deliver(round, inbound); err != nil {
				t.Fatal(err)
			}
		}
		if live == 0 {
			break
		}
	}
	for _, sh := range shards {
		c := sh.Counters()
		messages += c.Messages
		bits += c.Bits
		local, cross := sh.RoutedSplit()
		routed += local + cross
	}
	logs = make([][]Envelope, n)
	for v, p := range progs {
		logs[v] = p.log
	}
	return logs, messages, bits, routed
}

// TestShardFanStraddlingRangesMatchesNetwork runs multicasts whose fans
// straddle both boundaries of the middle shard's range: the retained local
// sub-fan plus the expanded cross-shard prefix and suffix must deliver
// exactly what Network delivers, and the local/cross split must account
// for every metered message.
func TestShardFanStraddlingRangesMatchesNetwork(t *testing.T) {
	g := graph.GNP(30, 0.5, rng.New(12))
	const k = 3
	lo, hi := g.N()/k, 2*g.N()/k
	straddles := false
	for v := lo; v < hi && !straddles; v++ {
		nb := g.Neighbors(graph.NodeID(v))
		straddles = len(nb) > 0 && int(nb[0]) < lo && int(nb[len(nb)-1]) >= hi
	}
	if !straddles {
		t.Fatal("test graph has no middle-shard fan straddling both boundaries")
	}
	opts := Options{BandwidthBits: 1 << 20}
	wantLogs, want, err := runFan(t, g, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	logs, messages, bits, routed := runFanSharded(t, g, k, opts)
	if !reflect.DeepEqual(logs, wantLogs) {
		t.Fatal("sharded inboxes differ from Network's")
	}
	if messages != want.Messages || bits != want.Bits {
		t.Fatalf("sharded metered %d messages / %d bits, Network %d / %d", messages, bits, want.Messages, want.Bits)
	}
	if routed != messages {
		t.Fatalf("local+cross = %d, want Messages = %d", routed, messages)
	}
}
