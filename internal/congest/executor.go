package congest

import (
	"slices"
	"sync"

	"dhc/internal/metrics"
)

// executor advances the active set of nodes by one round, either
// sequentially or with a worker pool. Both produce identical executions:
// the active set is assembled single-threaded before invocation, nodes use
// private RNG streams, outboxes are concatenated in node-id order, and
// metric merging is order-insensitive. Contexts, the inbox arena and the
// concatenation buffer live in runState and are reused round over round, so
// a round's cost is O(active nodes + delivered messages).
type executor struct {
	net      *Network
	state    *runState
	counters *metrics.Counters
}

func newExecutor(net *Network, state *runState, counters *metrics.Counters) *executor {
	return &executor{net: net, state: state, counters: counters}
}

// buildActive assembles this round's active set, ascending by node id:
// every live node on the Init round or in dense mode; otherwise the nodes
// with deliveries, due wake-ups, and (while any exist) legacy-dense nodes.
func (e *executor) buildActive(round int64, isInit bool) []int32 {
	s := e.state
	active := s.active[:0]
	if isInit || e.net.opts.DenseSweep || s.sched.legacyLive > 0 {
		// Dense sweep (or mixed legacy network): every live node runs. Due
		// wake entries are still consumed so the heap stays bounded.
		for v := 0; v < len(s.halted); v++ {
			if !s.halted[v] {
				active = append(active, int32(v))
			}
		}
		if !isInit && !e.net.opts.DenseSweep {
			due := s.sched.popDue(round, s.halted, s.inActive, s.dueScratch[:0])
			for _, v := range due {
				s.inActive[v] = false
			}
			s.dueScratch = due[:0]
		}
		s.msgActive = s.msgActive[:0]
		s.active = active
		return active
	}
	for _, v := range s.msgActive {
		// Receivers are recorded at delivery time, after all halts of the
		// sending round were merged, so they are live and unique.
		s.inActive[v] = true
		active = append(active, v)
	}
	s.msgActive = s.msgActive[:0]
	active = s.sched.popDue(round, s.halted, s.inActive, active)
	for _, v := range active {
		s.inActive[v] = false
	}
	// Sort ascending so outbox concatenation (and thus delivery order and
	// inbox sender order) is deterministic and sender-grouped. slices.Sort
	// does not allocate, keeping the steady-state round allocation-free.
	slices.Sort(active)
	s.active = active
	return active
}

// invoke runs one node's Init or Round call; safe to call concurrently for
// distinct v (it touches only per-node state).
func (e *executor) invoke(v int32, round int64, isInit bool) {
	s := e.state
	if s.halted[v] {
		return // dense mode lists only live nodes; guard stays for safety
	}
	ctx := s.ctxs[v]
	ctx.reset(round)
	if isInit {
		e.net.nodes[v].Init(ctx)
		return
	}
	e.net.nodes[v].Round(ctx, s.inboxes[v])
	// The inbox is consumed: this round's delivery refills the arena it
	// points into, and publishes inboxes only for its own receivers.
	s.inboxes[v] = nil
}

// step runs round `round` (or the Init phase when isInit). It invokes the
// active nodes, merges metrics and wake requests, and delivers outboxes.
func (e *executor) step(round int64, isInit bool) error {
	s := e.state
	active := e.buildActive(round, isInit)

	if e.net.opts.Workers <= 1 || len(active) < 2 {
		for _, v := range active {
			e.invoke(v, round, isInit)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int32)
		workers := e.net.opts.Workers
		if workers > len(active) {
			workers = len(active)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := range work {
					e.invoke(v, round, isInit)
				}
			}()
		}
		for _, v := range active {
			work <- v
		}
		close(work)
		wg.Wait()
	}

	// Merge results in node-id order (single-threaded) so outbox
	// concatenation and error selection are deterministic. Every listed
	// node was invoked this round, so its context fields are fresh.
	out := s.out[:0]
	eventDriven := !e.net.opts.DenseSweep
	for _, v := range active {
		ctx := s.ctxs[v]
		if ctx.err != nil {
			return ctx.err
		}
		e.counters.Invocations++
		if ctx.halted {
			s.halted[v] = true
			s.live--
			s.sched.noteHalt(v)
		} else if eventDriven {
			s.sched.noteInvocation(v, round, ctx)
		}
		if ctx.memWords > 0 {
			e.counters.ObserveMemory(int(v), ctx.memWords)
		}
		if ctx.workOps > 0 {
			e.counters.AddWork(int(v), ctx.workOps)
		}
		out = append(out, ctx.outbox...)
	}
	s.out = out
	return e.net.deliver(round, out, s)
}
