package congest

import (
	"fmt"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/wire"
)

// routedMsg is one outbox entry. A point-to-point entry (fan == nil) carries
// one message to `to`. A multicast entry carries one message to every id in
// fan except `to` (-1 skips no one); fan is an ascending Scope slice, so
// delivery expands it in the same order a Send loop over the scope would
// have queued the copies.
type routedMsg struct {
	from, to graph.NodeID
	msg      wire.Message
	fan      []graph.NodeID
}

// delivery is the metering and inbox state shared by Network and Shard:
// the next-round inboxes, the receivers they activate, and per-edge
// bandwidth accounting, all indexed by receiver - lo. Network delivers into
// the whole vertex set (lo = 0) and a Shard into its range, through the same
// code, which is what keeps the two engines' counters and inboxes identical.
//
// A delivery is a counting sort of one sender-ordered message stream into a
// flat per-round inbox arena:
//
//  1. count meters every copy (fault hook, width, bandwidth, counters, the
//     halted drop) and tallies the surviving copies per receiver, listing
//     each receiver in msgActive on its first copy;
//  2. layout turns the tallies into arena offsets;
//  3. fill re-walks the same stream and writes each surviving copy at its
//     receiver's cursor (with a fault hook set, fillStaged replays the
//     copies count staged instead, so the hook runs once per copy);
//  4. publish points each receiver's inbox at its arena range.
//
// Walking the stream in sender order makes every inbox sender-sorted with
// no comparison sort. The arena is reused round over round and only grows,
// so a steady state allocates nothing; an inbox is therefore valid only
// until the next delivery, which is why the Node contract limits it to the
// Round call.
//
// Messages must arrive grouped by sender: each sender run is one bandwidth
// generation, so bwBits[v] accumulates exactly the bits one sender pushed to
// v this round. Generations never repeat, so the stamp arrays need no
// clearing between senders, rounds or runs.
type delivery struct {
	lo     int
	halted []bool
	// inboxes[v] is node lo+v's next-round inbox: a sub-slice of arena with
	// its capacity clipped to its length, so a node appending to its inbox
	// reallocates instead of overwriting a neighbour's range. The executor
	// clears an inbox once its node has consumed it.
	inboxes [][]Envelope
	// arena backs every inbox of one round, receivers in msgActive order.
	arena []Envelope
	// pos[v] is receiver v's copy tally during count, then its arena
	// cursor during fill; publish zeroes it again.
	pos []int32
	// staged holds the surviving, possibly rewritten copies of a hooked
	// delivery in stream order, for fillStaged.
	staged []stagedCopy
	// msgActive lists the receivers (local indices) of this delivery:
	// appended on the first surviving copy, so it never holds a halted node
	// or a duplicate.
	msgActive []int32
	bwStamp   []int64
	bwBits    []int64
	bwGen     int64
	curFrom   graph.NodeID

	// Per-run bindings.
	codec    wire.Codec
	budget   int64
	hook     func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool)
	counters *metrics.Counters
}

// stagedCopy is one surviving copy of a hooked delivery.
type stagedCopy struct {
	lv  int32
	env Envelope
}

func newDelivery(lo, k int) delivery {
	return delivery{
		lo:      lo,
		halted:  make([]bool, k),
		inboxes: make([][]Envelope, k),
		pos:     make([]int32, k),
		bwStamp: make([]int64, k),
		bwBits:  make([]int64, k),
	}
}

// bind sets the per-run metering parameters.
func (d *delivery) bind(codec wire.Codec, opts Options, counters *metrics.Counters) {
	d.codec, d.budget, d.hook, d.counters = codec, opts.BandwidthBits, opts.FaultHook, counters
}

// begin starts a delivery batch: the next message opens a new sender run.
// msgActive is empty here (the active-set assembly drained it).
func (d *delivery) begin() {
	d.curFrom = -1
	d.staged = d.staged[:0]
}

// count meters one outbox entry (pass 1).
func (d *delivery) count(round int64, rm *routedMsg) error {
	if rm.fan == nil {
		return d.send(round, rm.from, rm.to, rm.msg)
	}
	return d.multicast(round, rm.from, rm.fan, rm.to, rm.msg)
}

// send meters and tallies one point-to-point message.
func (d *delivery) send(round int64, from, to graph.NodeID, msg wire.Message) error {
	lv := int(to) - d.lo
	if lv < 0 || lv >= len(d.inboxes) {
		return d.abort(fmt.Errorf("congest: shard [%d,%d) received message for node %d", d.lo, d.lo+len(d.inboxes), to))
	}
	if d.hook != nil {
		var deliverIt bool
		if msg, deliverIt = d.hook(round, from, to, msg); !deliverIt {
			return nil
		}
	}
	sz := d.codec.Bits(msg)
	d.sender(from)
	if !d.charge(lv, sz) {
		return d.overBudget(round, from, lv)
	}
	d.counters.AddMessage(sz)
	if d.tally(lv) && d.hook != nil {
		d.staged = append(d.staged, stagedCopy{lv: int32(lv), env: Envelope{From: from, Msg: msg}})
	}
	return nil
}

// multicast meters and tallies one copy of msg per fan member except
// `except`. Without a fault hook every copy has the same width, so Bits is
// computed once and the counters are added in one batch; the per-receiver
// budget, the halted drop and the activation bookkeeping are exactly send's.
// With a hook each copy goes through send, so the hook sees every copy.
func (d *delivery) multicast(round int64, from graph.NodeID, fan []graph.NodeID, except graph.NodeID, msg wire.Message) error {
	if d.hook != nil {
		for _, to := range fan {
			if to == except {
				continue
			}
			if err := d.send(round, from, to, msg); err != nil {
				return err
			}
		}
		return nil
	}
	sz := d.codec.Bits(msg)
	d.sender(from)
	var sent int64
	for _, to := range fan {
		if to == except {
			continue
		}
		lv := int(to) - d.lo
		if !d.charge(lv, sz) {
			d.counters.AddMessages(sent, sz)
			return d.overBudget(round, from, lv)
		}
		sent++
		d.tally(lv)
	}
	d.counters.AddMessages(sent, sz)
	return nil
}

// sender opens a new bandwidth generation when from starts a new sender
// run.
func (d *delivery) sender(from graph.NodeID) {
	if from != d.curFrom {
		d.curFrom = from
		d.bwGen++
	}
}

// charge adds sz bits to the edge from the current sender to lo+lv in the
// current generation and reports whether the edge stays within its round
// budget. It is small enough to inline into the delivery loops; the error
// is built out of line by overBudget.
func (d *delivery) charge(lv int, sz int64) bool {
	if d.bwStamp[lv] != d.bwGen {
		d.bwStamp[lv] = d.bwGen
		d.bwBits[lv] = 0
	}
	d.bwBits[lv] += sz
	return d.bwBits[lv] <= d.budget
}

func (d *delivery) overBudget(round int64, from graph.NodeID, lv int) error {
	return d.abort(fmt.Errorf("%w: edge %d->%d carried %d bits in round %d (budget %d)",
		ErrBandwidth, from, d.lo+lv, d.bwBits[lv], round, d.budget))
}

// abort drops a delivery that failed in count: the tallies go back to zero
// so the storage stays reusable, and no inbox is published.
func (d *delivery) abort(err error) error {
	for _, lv := range d.msgActive {
		d.pos[lv] = 0
	}
	return err
}

// tally counts a metered copy for its receiver and reports whether it
// survives; a halted receiver consumes nothing.
func (d *delivery) tally(lv int) bool {
	if d.halted[lv] {
		return false
	}
	if d.pos[lv] == 0 {
		d.msgActive = append(d.msgActive, int32(lv))
	}
	d.pos[lv]++
	return true
}

// layout turns the receivers' tallies into arena cursors, laying their
// ranges out back to back in msgActive order, and grows the arena to the
// round's volume. The arena never shrinks, and it at least doubles when it
// grows, so a run reaches its peak volume in O(log) allocations and every
// later round allocates nothing.
func (d *delivery) layout() {
	var total int32
	for _, lv := range d.msgActive {
		c := d.pos[lv]
		d.pos[lv] = total
		total += c
	}
	if int(total) > len(d.arena) {
		d.arena = make([]Envelope, max(int(total), 2*len(d.arena)))
	}
}

// fill writes the surviving copies of one outbox entry to their receivers'
// arena ranges (pass 2). It walks the entry exactly as count did and needs
// no checks: count validated every receiver and the halted flags cannot
// change in between.
func (d *delivery) fill(rm *routedMsg) {
	env := Envelope{From: rm.from, Msg: rm.msg}
	if rm.fan == nil {
		d.put(int(rm.to)-d.lo, env)
		return
	}
	for _, to := range rm.fan {
		if to != rm.to {
			d.put(int(to)-d.lo, env)
		}
	}
}

// put writes one copy at its receiver's cursor unless the receiver halted.
func (d *delivery) put(lv int, env Envelope) {
	if d.halted[lv] {
		return
	}
	d.arena[d.pos[lv]] = env
	d.pos[lv]++
}

// fillStaged is fill for a hooked delivery: it replays the copies count
// staged, carrying the hook's rewrites.
func (d *delivery) fillStaged() {
	for i := range d.staged {
		c := &d.staged[i]
		d.arena[d.pos[c.lv]] = c.env
		d.pos[c.lv]++
	}
}

// publish points every receiver's inbox at its filled arena range, clipping
// the capacity, and zeroes the cursors for the next delivery. After fill a
// receiver's cursor is the end of its range, and ranges are back to back in
// msgActive order, so each range starts where the previous one ended.
func (d *delivery) publish() {
	var start int32
	for _, lv := range d.msgActive {
		end := d.pos[lv]
		d.inboxes[lv] = d.arena[start:end:end]
		d.pos[lv] = 0
		start = end
	}
}
