package congest

import (
	"fmt"

	"dhc/internal/graph"
	"dhc/internal/wire"
)

// Scope is a subset of one node's neighbour list, built by the engine: the
// only constructors are Context.AllNeighbors and Context.FilterNeighbors, and
// both copy ids out of the node's own adjacency row. A Scope is therefore a
// valid set of destinations by construction, so Multicast over it needs no
// per-message adjacency check. The ids are ascending, like the adjacency row
// they come from.
//
// A Scope records the node and graph it was built for; multicasting it from
// any other node, or after the network was rebound to another graph, is a
// model violation reported as ErrNotNeighbor. The zero Scope is empty.
type Scope struct {
	nbrs  []graph.NodeID
	owner graph.NodeID
	g     *graph.Graph
	// owned is true when nbrs is storage FilterNeighbors may refill; false
	// when it is a view of the graph's adjacency arena.
	owned bool
}

// Nodes returns the scope's neighbour ids in ascending order. The slice is
// shared with the scope (and, for AllNeighbors, with the graph); do not
// modify it.
func (s Scope) Nodes() []graph.NodeID { return s.nbrs }

// AllNeighbors returns the scope of every neighbour of this node. It is a
// view of the adjacency row and costs nothing to build.
func (c *Context) AllNeighbors() Scope {
	return Scope{nbrs: c.net.g.Neighbors(c.id), owner: c.id, g: c.net.g}
}

// FilterNeighbors returns the scope of the neighbours whose port — the index
// into Neighbors() — satisfies keep. It refills dst's storage when dst came
// from an earlier FilterNeighbors call, so a node that rebuilds its scopes
// every phase allocates only when a scope outgrows its previous capacity.
// Copies of dst share that storage and see the new contents; an entry
// multicast over dst earlier in the same invocation is read at delivery, so
// refill a scope only before multicasting over it.
func (c *Context) FilterNeighbors(dst Scope, keep func(port int) bool) Scope {
	var buf []graph.NodeID
	if dst.owned {
		buf = dst.nbrs[:0]
	}
	for port, nb := range c.net.g.Neighbors(c.id) {
		if keep(port) {
			buf = append(buf, nb)
		}
	}
	return Scope{nbrs: buf, owner: c.id, g: c.net.g, owned: true}
}

// Multicast queues m for every neighbour in s except `except` (pass -1 to
// skip no one), for delivery next round. It queues one outbox entry however
// large the scope; delivery expands it and meters every copy exactly like a
// Send to that neighbour — same bandwidth budget, same counters, same inbox
// order. An empty scope queues nothing.
func (c *Context) Multicast(s Scope, except graph.NodeID, m wire.Message) {
	if len(s.nbrs) == 0 {
		return
	}
	if s.owner != c.id || s.g != c.net.g {
		if c.err == nil {
			c.err = fmt.Errorf("%w: node %d multicast a scope built for node %d (%s)",
				ErrNotNeighbor, c.id, s.owner, m)
		}
		return
	}
	c.outbox = append(c.outbox, routedMsg{from: c.id, to: except, msg: m, fan: s.nbrs})
}

// Broadcast queues m for every neighbour: Multicast over AllNeighbors.
func (c *Context) Broadcast(m wire.Message) {
	c.Multicast(c.AllNeighbors(), -1, m)
}
