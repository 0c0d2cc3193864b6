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

// delivery is the metering and bucketing state shared by Network and Shard:
// next-round inbox buckets, the receivers they activate, and per-edge
// bandwidth accounting, all indexed by receiver - lo. Network delivers into
// the whole vertex set (lo = 0) and a Shard into its range, through the same
// code, which is what keeps the two engines' counters and inboxes identical.
//
// Messages must arrive grouped by sender: each sender run is one bandwidth
// generation, so bwBits[v] accumulates exactly the bits one sender pushed to
// v this round. Generations never repeat, so the stamp arrays need no
// clearing between senders, rounds or runs.
type delivery struct {
	lo     int
	halted []bool
	// inboxes[v] is node lo+v's next-round inbox. Envelopes are appended in
	// sender order, and the executor truncates a bucket after the node
	// consumed it, recycling the backing array.
	inboxes [][]Envelope
	// msgActive lists the receivers (local indices) of this delivery:
	// appended on the first envelope into an empty bucket, so it never
	// holds a halted node or a duplicate.
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

func newDelivery(lo, k int) delivery {
	return delivery{
		lo:      lo,
		halted:  make([]bool, k),
		inboxes: make([][]Envelope, k),
		bwStamp: make([]int64, k),
		bwBits:  make([]int64, k),
	}
}

// bind sets the per-run metering parameters.
func (d *delivery) bind(codec wire.Codec, opts Options, counters *metrics.Counters) {
	d.codec, d.budget, d.hook, d.counters = codec, opts.BandwidthBits, opts.FaultHook, counters
}

// begin starts a delivery batch: the next message opens a new sender run.
func (d *delivery) begin() { d.curFrom = -1 }

// route delivers one outbox entry.
func (d *delivery) route(round int64, rm *routedMsg) error {
	if rm.fan == nil {
		return d.send(round, rm.from, rm.to, rm.msg)
	}
	return d.multicast(round, rm.from, rm.fan, rm.to, rm.msg)
}

// send meters and buckets one point-to-point message.
func (d *delivery) send(round int64, from, to graph.NodeID, msg wire.Message) error {
	lv := int(to) - d.lo
	if lv < 0 || lv >= len(d.inboxes) {
		return fmt.Errorf("congest: shard [%d,%d) received message for node %d", d.lo, d.lo+len(d.inboxes), to)
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
	d.enqueue(lv, from, msg)
	return nil
}

// multicast meters and buckets one copy of msg per fan member except
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
		d.enqueue(lv, from, msg)
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
	return fmt.Errorf("%w: edge %d->%d carried %d bits in round %d (budget %d)",
		ErrBandwidth, from, d.lo+lv, d.bwBits[lv], round, d.budget)
}

// enqueue appends a metered message to its receiver's bucket; a halted
// receiver consumes nothing.
func (d *delivery) enqueue(lv int, from graph.NodeID, msg wire.Message) {
	if d.halted[lv] {
		return
	}
	if len(d.inboxes[lv]) == 0 {
		d.msgActive = append(d.msgActive, int32(lv))
	}
	d.inboxes[lv] = append(d.inboxes[lv], Envelope{From: from, Msg: msg})
}
