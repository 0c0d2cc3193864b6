package main

import (
	"math"
	"time"

	"dhc"
	"dhc/internal/serve"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"heap_peak_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
}

// layerMetrics are printed by every traced run. A layer a workload bypasses
// reports 0. Counts are summed over the first pass of the traced segment, so
// they repeat exactly for a given seed.
var layerMetrics = append([]metricDef{
	{"graph.build_ms", "ms"},
	{"graph.edges_per_s", "1/s"},
	{"graph.bytes_per_edge", "B"},
	{"congest.rounds", "count"},
	{"congest.rounds_skipped", "count"},
	{"congest.invocations", "count"},
	{"congest.messages", "count"},
	{"congest.bits", "count"},
	{"congest.max_message_bits", "bit"},
	{"congest.ns_per_msg", "ns"},
	{"congest.msgs_per_s", "1/s"},
	{"core.steps", "count"},
	{"core.phase1_rounds", "count"},
	{"core.phase2_rounds", "count"},
	{"stepsim.phase1_ms", "ms"},
	{"stepsim.phase2_ms", "ms"},
	{"stepsim.steps", "count"},
	{"stepsim.steps_per_s", "1/s"},
	{"stepsim.restarts", "count"},
	{"cycle.verify_ms", "ms"},
	{"dist.shard_busy_ms_max", "ms"},
	{"dist.shard_busy_skew", "ratio"},
	{"dist.coord_ms", "ms"},
	{"dist.rtts_per_round", "ratio"},
	{"dist.wire_bytes_per_round", "B"},
	{"dist.cross_msg_ratio", "ratio"},
	{"dist.batch_bytes_per_cross_msg", "B"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p90_ms", "ms"},
	{"serve.miss_solve_ms_p50", "ms"},
	{"serve.miss_overhead_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.pool_reuse_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_objects_per_op", "count"},
	{"trace.overhead_p50_ms", "ms"},
}, profileMetrics()...)

func profileMetrics() []metricDef {
	var out []metricDef
	for _, l := range profileLayers {
		out = append(out, metricDef{"profile.self_share." + l, "ratio"})
	}
	return out
}

// graphStats accumulates every instance build of the set-ups.
type graphStats struct {
	buildMs []float64
	seconds float64
	edges   int64
	bytes   int64
}

func (s *graphStats) add(d time.Duration, g *dhc.Graph) {
	s.buildMs = append(s.buildMs, ms(d))
	s.seconds += d.Seconds()
	s.edges += int64(g.M())
	s.bytes += g.MemBytes()
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	plain, traced *segment
	graphs        *graphStats
	spans         []span
	shares        map[string]float64
	solve         *solveBench // nil on serve-mix
	serve         *serveBench // nil unless serve-mix
	statsBefore   serve.Stats // /stats around the traced segment (serve-mix)
	statsAfter    serve.Stats
}

func computeLayers(in layerInputs) map[string]float64 {
	m := map[string]float64{}
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	g := in.graphs
	m["graph.build_ms"] = median(g.buildMs)
	m["graph.edges_per_s"] = float64(g.edges) / g.seconds
	m["graph.bytes_per_edge"] = float64(g.bytes) / float64(g.edges)

	t := in.traced
	ops := float64(t.attempted)
	m["runtime.gc_cycles_per_op"] = float64(t.delta.gcCycles) / ops
	m["runtime.gc_pause_ms"] = float64(t.pauseNs) / 1e6 / ops
	m["runtime.alloc_objects_per_op"] = float64(t.delta.allocObjects) / ops
	m["trace.overhead_p50_ms"] = median(t.latMs) - median(in.plain.latMs)
	for l, v := range in.shares {
		if _, ok := m["profile.self_share."+l]; ok {
			m["profile.self_share."+l] = v
		}
	}

	perOp := spanMillisByOp(in.spans)
	m["cycle.verify_ms"] = medianOf(perOp, "verify")
	if in.solve != nil {
		solveLayers(m, in.solve, perOp)
	}
	if in.serve != nil {
		serveLayers(m, in)
	}
	return m
}

// spanMillisByOp sums span durations per operation and span name.
func spanMillisByOp(spans []span) map[int]map[string]float64 {
	out := map[int]map[string]float64{}
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		if out[s.Op] == nil {
			out[s.Op] = map[string]float64{}
		}
		out[s.Op][s.Name] += float64(s.End-s.Start) / 1e6
	}
	return out
}

// medianOf is the median over operations of one span name's duration,
// counting only operations that have such a span.
func medianOf(perOp map[int]map[string]float64, name string) float64 {
	var xs []float64
	for _, byName := range perOp {
		if v, ok := byName[name]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func solveLayers(m map[string]float64, b *solveBench, perOp map[int]map[string]float64) {
	pass := b.log[:min(len(b.log), b.spec.pass)]
	var solveMs, steps, p1, p2, restarts float64
	var c dhc.Counters
	var rtts, wire, local, cross, batch float64
	for _, op := range pass {
		r := op.res
		solveMs += op.solveMs
		steps += float64(r.Steps)
		p1 += float64(r.Phase1Rounds)
		p2 += float64(r.Phase2Rounds)
		restarts += float64(op.restarts)
		if rc := r.Counters; rc != nil {
			c.Rounds += rc.Rounds
			c.RoundsSkipped += rc.RoundsSkipped
			c.Invocations += rc.Invocations
			c.Messages += rc.Messages
			c.Bits += rc.Bits
			c.MaxMessageBits = max(c.MaxMessageBits, rc.MaxMessageBits)
		}
		for _, s := range r.ShardStats {
			rtts += float64(s.RTTs)
			wire += float64(s.BytesSent + s.BytesRecv)
			local += float64(s.LocalMsgs)
			cross += float64(s.CrossMsgs)
			batch += float64(s.BatchBytesDelta)
		}
	}
	m["core.steps"] = steps
	m["core.phase1_rounds"] = p1
	m["core.phase2_rounds"] = p2

	if b.spec.opts.Engine == dhc.EngineStep {
		m["stepsim.phase1_ms"] = medianOf(perOp, "phase1")
		m["stepsim.phase2_ms"] = medianOf(perOp, "phase2")
		m["stepsim.steps"] = steps
		m["stepsim.steps_per_s"] = steps / (solveMs / 1e3)
		m["stepsim.restarts"] = restarts
		return
	}
	m["congest.rounds"] = float64(c.Rounds)
	m["congest.rounds_skipped"] = float64(c.RoundsSkipped)
	m["congest.invocations"] = float64(c.Invocations)
	m["congest.messages"] = float64(c.Messages)
	m["congest.bits"] = float64(c.Bits)
	m["congest.max_message_bits"] = float64(c.MaxMessageBits)
	m["congest.ns_per_msg"] = solveMs * 1e6 / float64(c.Messages)
	m["congest.msgs_per_s"] = float64(c.Messages) / (solveMs / 1e3)

	if b.spec.opts.Shards < 2 {
		return
	}
	var busyMax, skew, coord []float64
	for _, op := range b.log {
		hi, lo := 0.0, math.Inf(1)
		for _, s := range op.res.ShardStats {
			hi, lo = max(hi, s.BusySeconds*1e3), min(lo, s.BusySeconds*1e3)
		}
		busyMax = append(busyMax, hi)
		if lo > 0 {
			skew = append(skew, hi/lo)
		}
		coord = append(coord, op.solveMs-hi)
	}
	executed := float64(c.Rounds - c.RoundsSkipped)
	m["dist.shard_busy_ms_max"] = median(busyMax)
	if len(skew) > 0 {
		m["dist.shard_busy_skew"] = median(skew)
	}
	m["dist.coord_ms"] = median(coord)
	m["dist.rtts_per_round"] = rtts / executed
	m["dist.wire_bytes_per_round"] = wire / executed
	m["dist.cross_msg_ratio"] = cross / (local + cross)
	m["dist.batch_bytes_per_cross_msg"] = batch / cross
}

func serveLayers(m map[string]float64, in layerInputs) {
	var hits, walls, overhead []float64
	var steps, p1, p2 float64
	for _, cl := range in.serve.cls {
		for _, op := range cl.log {
			if op.hit {
				hits = append(hits, op.latMs)
				continue
			}
			walls = append(walls, op.solveWallMs)
			overhead = append(overhead, op.latMs-op.solveWallMs)
			if op.pass {
				steps += float64(op.steps)
				p1 += float64(op.p1)
				p2 += float64(op.p2)
			}
		}
	}
	m["core.steps"] = steps
	m["core.phase1_rounds"] = p1
	m["core.phase2_rounds"] = p2
	m["serve.hit_p50_ms"] = median(hits)
	if v, err := tailPercentile(hits, 90); err == nil {
		m["serve.hit_p90_ms"] = v
	}
	m["serve.miss_solve_ms_p50"] = median(walls)
	m["serve.miss_overhead_ms_p50"] = median(overhead)
	a, b := in.statsAfter, in.statsBefore
	if lookups := (a.CacheHits - b.CacheHits) + (a.CacheMisses - b.CacheMisses); lookups > 0 {
		m["serve.cache_hit_ratio"] = float64(a.CacheHits-b.CacheHits) / float64(lookups)
	}
	if checkouts := (a.SolversCreated - b.SolversCreated) + (a.SolversReused - b.SolversReused); checkouts > 0 {
		m["serve.pool_reuse_ratio"] = float64(a.SolversReused-b.SolversReused) / float64(checkouts)
	}
	m["serve.rejected"] = float64(a.Rejected - b.Rejected)
}
