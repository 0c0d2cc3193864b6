package core

import (
	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/wire"
)

// colorView is a node's port-indexed record of its neighbours' colours:
// of[port] is the colour announced by Neighbors()[port], -1 until heard. The
// slice is reused across merge levels and solver sessions, so a colour
// exchange allocates nothing once the node has seen its degree.
type colorView struct {
	of []int32
	// heard counts the ports that reported a colour since the last reset;
	// memory metering charges one word per colour held.
	heard int
}

// reset forgets every colour and sizes the view for deg ports.
func (cv *colorView) reset(deg int) {
	if cap(cv.of) < deg {
		cv.of = make([]int32, deg)
	}
	cv.of = cv.of[:deg]
	for i := range cv.of {
		cv.of[i] = -1
	}
	cv.heard = 0
}

// record stores the colours announced in a sender-sorted inbox by a
// merge-join against the sorted neighbour list.
func (cv *colorView) record(nbrs []graph.NodeID, inbox []congest.Envelope) {
	port := 0
	for _, env := range inbox {
		if env.Msg.Kind != wire.KindColor {
			continue
		}
		for port < len(nbrs) && nbrs[port] < env.From {
			port++
		}
		if port == len(nbrs) {
			return
		}
		if nbrs[port] == env.From {
			if cv.of[port] < 0 {
				cv.heard++
			}
			cv.of[port] = env.Msg.Arg(0)
		}
	}
}

// scope returns the neighbours whose colour is c (c >= 0, so an unheard
// port never matches), refilling dst's storage.
func (cv *colorView) scope(ctx *congest.Context, dst congest.Scope, c int32) congest.Scope {
	return ctx.FilterNeighbors(dst, func(port int) bool { return cv.of[port] == c })
}

// inboxKinds returns the set of message kinds in inbox as a bitmask over
// kindBit.
func inboxKinds(inbox []congest.Envelope) uint64 {
	var set uint64
	for i := range inbox {
		set |= kindBit(inbox[i].Msg.Kind)
	}
	return set
}

// kindBit is k's bit in an inboxKinds set. Every defined kind is below 64;
// a larger (corrupted) kind maps to no bit, and no machine handles it.
func kindBit(k wire.Kind) uint64 { return 1 << k }
