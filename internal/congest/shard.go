package congest

import (
	"fmt"
	"slices"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// Routed is one routed message with explicit endpoints — the unit the
// distributed engine moves between shards. It is the point-to-point form of
// the engine-internal outbox entry (a multicast is expanded into one Routed
// per cross-shard receiver), so transports can carry outbox concatenations
// without reaching into the package.
type Routed struct {
	From, To graph.NodeID
	Msg      wire.Message
}

// StepReport is a shard's post-step summary, the coordinator's input for
// global liveness and scheduling decisions. Halts are step-time-only and
// terminal, and Deliver never touches the wake schedule, so everything the
// coordinator needs to schedule the next round — including the fields that
// logically describe the (not yet performed) delivery of this round's
// messages — is already final when Step returns.
type StepReport struct {
	// Live is the shard's non-halted node count after the step.
	Live int
	// LegacyLive counts live nodes that never called a wake API. While any
	// shard reports a nonzero LegacyLive the whole network must run dense —
	// the same global rule Network applies via its single scheduler.
	LegacyLive int
	// NewlyHalted lists the local indices (vertex - Lo) of nodes that halted
	// during this step, ascending. The coordinator folds them into its
	// global halted view so it can decide, for every routed cross-shard
	// message, whether delivery would activate the destination — the same
	// has-active rule the in-process deliver computes via msgActive. The
	// slice is reused by the next Step.
	NewlyHalted []int32
	// LocalActive reports whether any locally-retained message targets a
	// non-halted local node: the shard's contribution to the global
	// has-active decision for traffic the coordinator never sees.
	LocalActive bool
	// EarliestWake/WakeOK mirror the scheduler's earliest pending wake-up
	// among live local nodes after this step's bookkeeping (WakeOK false
	// when none exists).
	EarliestWake int64
	WakeOK       bool
}

// Shard executes a contiguous vertex range [Lo, Hi) of a network, reusing
// the exact per-round machinery of the in-process engine — the same active
// set assembly, scheduler, merge loop and arena delivery — restricted to
// local indices. The distributed engine composes K Shards behind transports;
// because each piece of the round pipeline is the in-process code operating
// on a partition of the same state, a distributed run is byte-identical to
// an in-process run by construction, and the differential tests hold it
// there.
//
// The split of one round across the coordinator protocol:
//
//	Step(r)    — build the local active set, invoke nodes, merge wake/halt
//	             bookkeeping, retain messages whose destination is also
//	             local, and return only the cross-shard outbox
//	             (sender-ascending).
//	Deliver(r) — accept the round's inbound cross-shard messages (the
//	             coordinator concatenates the other shards' batches in
//	             shard order) and splice the retained local messages into
//	             their sender position, reconstructing exactly the global
//	             sender-ascending order Network.deliver consumes, then
//	             meter bandwidth and fill inboxes. Local messages never
//	             cross the wire but are metered identically.
//
// Deliver must run before the next Step (the fused coordinator frame does
// both in order), since Step assumes the previous round's retained local
// messages have been drained.
//
// A Shard is not safe for concurrent use.
type Shard struct {
	net    *Network // carrier for Contexts: graph, codec, normalized opts
	lo, hi int
	nodes  []Node // local programs, indexed v-lo

	// delivery is the same metering and inbox state Network uses, indexed
	// by local receiver (v - lo).
	delivery
	live     int
	rngs     []*rng.Source
	ctxs     []*Context
	active   []int32
	dueScr   []int32
	inActive []bool
	sched    scheduler
	counters *metrics.Counters // full-length; only [lo,hi) per-node entries used
	out      []Routed

	// localPending holds this round's outbox entries whose receivers are
	// local, between Step (which retains them) and Deliver (which splices
	// them back into the global sender order). A multicast keeps its local
	// receivers as one unexpanded fan entry. newlyHalted is the reused
	// StepReport buffer.
	localPending []routedMsg
	newlyHalted  []int32
	// localRouted/crossRouted are cumulative message counts by routing
	// class, the shard's half of the ShardStats local-vs-cross split.
	localRouted int64
	crossRouted int64
}

// NewShard builds the executor for nodes [lo, hi) of an n-vertex network.
// local must hold exactly hi-lo programs; opts is normalized here, so the
// caller may pass the same raw Options it would hand Network.Reset. Deliver
// rejects FaultHook-bearing options up front: a delivery hook is a function
// value the distributed engine cannot ship across a process boundary, and
// silently dropping it would fake fault-free runs.
func NewShard(g *graph.Graph, local []Node, opts Options, lo, hi int) (*Shard, error) {
	n := g.N()
	if lo < 0 || hi > n || lo >= hi {
		return nil, fmt.Errorf("congest: shard range [%d,%d) invalid for %d vertices", lo, hi, n)
	}
	if len(local) != hi-lo {
		return nil, fmt.Errorf("congest: %d node programs for shard range [%d,%d)", len(local), lo, hi)
	}
	if opts.FaultHook != nil {
		return nil, fmt.Errorf("congest: FaultHook is not supported by sharded execution")
	}
	opts.Workers = 1 // shards are the parallelism; keep the per-shard loop sequential
	carrier := &Network{g: g, codec: wire.NewCodec(n), opts: NormalizeOptions(opts, n)}
	k := hi - lo
	s := &Shard{
		net:      carrier,
		lo:       lo,
		hi:       hi,
		nodes:    local,
		delivery: newDelivery(lo, k),
		live:     k,
		rngs:     make([]*rng.Source, k),
		ctxs:     make([]*Context, k),
		inActive: make([]bool, k),
		sched:    newScheduler(k),
		counters: metrics.NewCounters(n),
	}
	s.bind(carrier.codec, carrier.opts, s.counters)
	for v := 0; v < k; v++ {
		s.rngs[v] = &rng.Source{}
		s.ctxs[v] = &Context{net: carrier, id: graph.NodeID(lo + v), rng: s.rngs[v]}
	}
	return s, nil
}

// Seed derives the local nodes' RNG streams from the run seed. SplitInto
// never advances the root source, so a shard deriving only its own range
// produces streams identical to the in-process engine deriving all n.
func (s *Shard) Seed(seed uint64) {
	root := rng.New(seed)
	for v := range s.rngs {
		root.SplitInto(s.rngs[v], uint64(s.lo+v))
	}
}

// Codec returns the codec sizing and encoding this network's messages.
func (s *Shard) Codec() wire.Codec { return s.net.codec }

// N returns the full network's vertex count.
func (s *Shard) N() int { return s.net.g.N() }

// Lo returns the first vertex of the shard's range.
func (s *Shard) Lo() int { return s.lo }

// Hi returns one past the last vertex of the shard's range.
func (s *Shard) Hi() int { return s.hi }

// Counters returns the shard's metering: the scalar message/invocation
// totals it contributed plus the per-node entries of its range. The
// coordinator merges shard counters into the run totals.
func (s *Shard) Counters() *metrics.Counters { return s.counters }

// Step executes round `round` (Init when isInit) for the shard's nodes and
// returns the cross-shard outbound messages in sender-ascending order;
// messages whose destination is also in [Lo, Hi) are retained for the next
// Deliver instead of being shipped. dense selects the every-live-node sweep;
// it is a global property (Init round, DenseSweep, or a legacy-dense node
// live anywhere in the network) that only the coordinator can compute,
// mirroring Network's single-scheduler decision. The returned slice is
// reused by the next Step.
func (s *Shard) Step(round int64, isInit, dense bool) ([]Routed, StepReport, error) {
	active := s.active[:0]
	if isInit || dense {
		for v := range s.nodes {
			if !s.halted[v] {
				active = append(active, int32(v))
			}
		}
		if !isInit && !s.net.opts.DenseSweep {
			due := s.sched.popDue(round, s.halted, s.inActive, s.dueScr[:0])
			for _, v := range due {
				s.inActive[v] = false
			}
			s.dueScr = due[:0]
		}
		s.msgActive = s.msgActive[:0]
	} else {
		for _, v := range s.msgActive {
			s.inActive[v] = true
			active = append(active, v)
		}
		s.msgActive = s.msgActive[:0]
		active = s.sched.popDue(round, s.halted, s.inActive, active)
		for _, v := range active {
			s.inActive[v] = false
		}
		slices.Sort(active)
	}
	s.active = active

	for _, v := range active {
		ctx := s.ctxs[v]
		ctx.reset(round)
		if isInit {
			s.nodes[v].Init(ctx)
			continue
		}
		s.nodes[v].Round(ctx, s.inboxes[v])
		s.inboxes[v] = nil
	}

	// Merge in local-id order — the same order the in-process merge loop
	// visits this range, so error selection, halt bookkeeping and outbox
	// concatenation are position-identical. Splitting the outbox by
	// destination preserves sender order within each class: the local and
	// cross streams are both subsequences of the sender-ascending whole.
	out := s.out[:0]
	local := s.localPending[:0]
	nh := s.newlyHalted[:0]
	eventDriven := !s.net.opts.DenseSweep
	rep := StepReport{}
	var nLocal int64
	for _, v := range active {
		ctx := s.ctxs[v]
		if ctx.err != nil {
			s.out, s.localPending, s.newlyHalted = out, local, nh
			rep.Live, rep.LegacyLive = s.live, s.sched.legacyLive
			return nil, rep, ctx.err
		}
		s.counters.Invocations++
		if ctx.halted {
			s.halted[v] = true
			s.live--
			s.sched.noteHalt(v)
			nh = append(nh, v)
		} else if eventDriven {
			s.sched.noteInvocation(v, round, ctx)
		}
		if ctx.memWords > 0 {
			s.counters.ObserveMemory(s.lo+int(v), ctx.memWords)
		}
		if ctx.workOps > 0 {
			s.counters.AddWork(s.lo+int(v), ctx.workOps)
		}
		for i := range ctx.outbox {
			rm := &ctx.outbox[i]
			if rm.fan == nil {
				if t := int(rm.to); t >= s.lo && t < s.hi {
					local = append(local, *rm)
					nLocal++
				} else {
					out = append(out, Routed{From: rm.from, To: rm.to, Msg: rm.msg})
				}
				continue
			}
			// A fan is ascending and the range is contiguous, so the local
			// receivers are one sub-slice: retain it unexpanded and expand
			// only the cross-shard prefix and suffix.
			a, _ := slices.BinarySearch(rm.fan, graph.NodeID(s.lo))
			b, _ := slices.BinarySearch(rm.fan, graph.NodeID(s.hi))
			out = appendFan(out, rm, rm.fan[:a])
			if a < b {
				part := rm.fan[a:b]
				local = append(local, routedMsg{from: rm.from, to: rm.to, msg: rm.msg, fan: part})
				nLocal += int64(len(part))
				if _, found := slices.BinarySearch(part, rm.to); found {
					nLocal-- // the excepted receiver is skipped at delivery
				}
			}
			out = appendFan(out, rm, rm.fan[b:])
		}
	}
	s.out, s.localPending, s.newlyHalted = out, local, nh
	s.localRouted += nLocal
	s.crossRouted += int64(len(out))
	rep.Live, rep.LegacyLive = s.live, s.sched.legacyLive
	rep.NewlyHalted = nh
	// Halts are final for the round here, so whether a retained local
	// message will activate its destination is already decided — the same
	// judgment the in-process deliver makes via msgActive.
	rep.LocalActive = s.localActive(local)
	rep.EarliestWake, rep.WakeOK = s.sched.earliestWake(s.halted)
	return out, rep, nil
}

// appendFan expands the multicast rm over the receivers in part (a
// sub-slice of rm.fan) into routed messages, skipping the excepted receiver.
func appendFan(out []Routed, rm *routedMsg, part []graph.NodeID) []Routed {
	for _, to := range part {
		if to != rm.to {
			out = append(out, Routed{From: rm.from, To: to, Msg: rm.msg})
		}
	}
	return out
}

// localActive reports whether any retained local entry reaches a live
// receiver.
func (s *Shard) localActive(local []routedMsg) bool {
	for i := range local {
		rm := &local[i]
		if rm.fan == nil {
			if !s.halted[int(rm.to)-s.lo] {
				return true
			}
			continue
		}
		for _, to := range rm.fan {
			if to != rm.to && !s.halted[int(to)-s.lo] {
				return true
			}
		}
	}
	return false
}

// Deliver routes this round's inbound messages into the next round's
// inboxes through the delivery primitive Network.deliver uses. inbound must
// be the concatenation of the OTHER shards' cross-shard messages destined
// here, in shard order; the entries Step retained locally are spliced back
// in at their sender position (inbound senders below Lo, then local, then
// the rest), which reconstructs the global sender-ascending order
// Network.deliver consumes — runs of equal From stay contiguous, so each
// run is one bandwidth generation exactly as in-process delivery sees it.
// The metering pass and the arena fill walk that stream in the same order.
func (s *Shard) Deliver(round int64, inbound []Routed) error {
	s.begin()
	split := 0
	for split < len(inbound) && int(inbound[split].From) < s.lo {
		split++
	}
	if err := s.countRouted(round, inbound[:split]); err != nil {
		return err
	}
	for j := range s.localPending {
		if err := s.count(round, &s.localPending[j]); err != nil {
			return err
		}
	}
	if err := s.countRouted(round, inbound[split:]); err != nil {
		return err
	}
	s.layout()
	// NewShard rejects a FaultHook, so nothing was staged: fill re-walks
	// the stream.
	s.fillRouted(inbound[:split])
	for j := range s.localPending {
		s.fill(&s.localPending[j])
	}
	s.fillRouted(inbound[split:])
	s.localPending = s.localPending[:0]
	s.publish()
	return nil
}

// countRouted meters a run of inbound messages (delivery pass 1).
func (s *Shard) countRouted(round int64, rs []Routed) error {
	for i := range rs {
		if err := s.send(round, rs[i].From, rs[i].To, rs[i].Msg); err != nil {
			return err
		}
	}
	return nil
}

// fillRouted writes a run of metered inbound messages to the arena
// (delivery pass 2).
func (s *Shard) fillRouted(rs []Routed) {
	for i := range rs {
		s.put(int(rs[i].To)-s.lo, Envelope{From: rs[i].From, Msg: rs[i].Msg})
	}
}

// RoutedSplit returns the shard's cumulative message counts by routing
// class: messages retained and delivered locally versus messages shipped
// through the coordinator.
func (s *Shard) RoutedSplit() (local, cross int64) { return s.localRouted, s.crossRouted }
