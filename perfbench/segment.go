package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// bench is one workload after set-up: a fixed set of closed-loop clients
// that each run operations back to back.
type bench interface {
	// clients is the number of closed-loop clients.
	clients() int
	// passOps is how many operations each client must finish in a segment
	// for its first pass over the workload's inputs to be complete; the
	// digest and the per-layer counts rest on that pass.
	passOps() int
	// op runs operation i of client c within seg and returns its latency;
	// any error, wrong output included, makes the operation a failure.
	op(ctx context.Context, seg *segment, c, i int) (time.Duration, error)
	close()
}

// memSample reads the runtime/metrics the end-to-end and runtime-layer
// metrics rest on. runtime/metrics reads do not stop the world.
type memSample struct {
	live, allocBytes, allocObjects, gcCycles uint64
}

var memMetricNames = []string{"/gc/heap/live:bytes", "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readMem() memSample {
	s := make([]metrics.Sample, len(memMetricNames))
	for i, name := range memMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return memSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64()}
}

// segment is one timed region: every client runs operations until the
// deadline has passed, at least minOps operations are done in total and each
// client has finished its first pass. hardStop bounds a host too slow for
// that floor.
type segment struct {
	name     string
	tr       *tracer
	deadline time.Time
	hardStop time.Time
	minOps   int

	mu        sync.Mutex
	opID      int
	latMs     []float64
	attempted int
	failed    int
	errs      []string
	heapPeak  uint64
	liveProbe []metrics.Sample

	elapsed time.Duration
	delta   memSample // allocation and GC-cycle counts over the segment
	pauseNs uint64    // GC pause total over the segment; traced segments only
}

// maxLoggedErrors bounds the failure messages kept for the diagnostic line.
const maxLoggedErrors = 5

// more reports whether a client that has done done operations starts another.
func (s *segment) more(done, passOps int) bool {
	now := time.Now()
	if now.After(s.hardStop) {
		return false
	}
	if done < passOps {
		return true
	}
	s.mu.Lock()
	total := s.attempted
	s.mu.Unlock()
	return now.Before(s.deadline) || total < s.minOps
}

// nextOp hands out the operation id its spans share.
func (s *segment) nextOp() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opID++
	return s.opID - 1
}

// record books one finished operation and samples the live heap at the
// operation boundary.
func (s *segment) record(lat time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	s.latMs = append(s.latMs, float64(lat.Nanoseconds())/1e6)
	if err != nil {
		s.failed++
		if len(s.errs) < maxLoggedErrors {
			s.errs = append(s.errs, err.Error())
		}
	}
	metrics.Read(s.liveProbe)
	if v := s.liveProbe[0].Value.Uint64(); v > s.heapPeak {
		s.heapPeak = v
	}
}

// fail books a failure found after the operations ran (a digest mismatch,
// a span outside its parent).
func (s *segment) fail(n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed += n
	if len(s.errs) < maxLoggedErrors {
		s.errs = append(s.errs, err.Error())
	}
}

// runSegment drives b's clients in a closed loop for the given duration, or
// until minOps operations are done if that takes longer.
func runSegment(ctx context.Context, b bench, name string, d time.Duration, minOps int, tr *tracer) (*segment, error) {
	seg := &segment{
		name:      name,
		tr:        tr,
		minOps:    minOps,
		liveProbe: []metrics.Sample{{Name: memMetricNames[0]}},
	}
	var ms runtime.MemStats
	if tr != nil {
		// Two stop-the-world reads bracket the traced segment only; the
		// untraced segment never calls ReadMemStats.
		runtime.ReadMemStats(&ms)
		seg.pauseNs = ms.PauseTotalNs
	}
	runtime.GC()
	before := readMem()
	seg.heapPeak = before.live
	start := time.Now()
	seg.deadline = start.Add(d)
	seg.hardStop = start.Add(d + maxOverrun)

	var wg sync.WaitGroup
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; seg.more(i, b.passOps()); i++ {
				lat, err := b.op(ctx, seg, c, i)
				seg.record(lat, err)
			}
		}(c)
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	after := readMem()
	seg.delta = memSample{
		allocBytes:   after.allocBytes - before.allocBytes,
		allocObjects: after.allocObjects - before.allocObjects,
		gcCycles:     after.gcCycles - before.gcCycles,
	}
	if tr != nil {
		runtime.ReadMemStats(&ms)
		seg.pauseNs = ms.PauseTotalNs - seg.pauseNs
	}
	if seg.attempted < seg.minOps {
		return seg, fmt.Errorf("segment %s: %d operations before the hard stop, need %d", name, seg.attempted, seg.minOps)
	}
	return seg, nil
}

// maxOverrun is how far past its deadline a segment may run to reach its
// operation floor before the run is refused.
const maxOverrun = 60 * time.Second

// merge pools the operations of several segments into one.
func merge(segs []*segment) *segment {
	out := &segment{name: segs[0].name}
	for _, s := range segs {
		out.latMs = append(out.latMs, s.latMs...)
		out.attempted += s.attempted
		out.failed += s.failed
		out.errs = append(out.errs, s.errs...)
		out.heapPeak = max(out.heapPeak, s.heapPeak)
		out.elapsed += s.elapsed
		out.delta.allocBytes += s.delta.allocBytes
		out.delta.allocObjects += s.delta.allocObjects
		out.delta.gcCycles += s.delta.gcCycles
		out.pauseNs += s.pauseNs
	}
	return out
}

// endToEnd computes the user-visible metrics of the segment.
func (s *segment) endToEnd(setupS float64) (map[string]float64, error) {
	ok := s.attempted - s.failed
	p90, err := tailPercentile(s.latMs, 90)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       float64(ok) / s.elapsed.Seconds(),
		"latency_p50_ms":  median(s.latMs),
		"latency_p90_ms":  p90,
		"ok_ratio":        float64(ok) / float64(s.attempted),
		"heap_peak_mb":    float64(s.heapPeak) / 1e6,
		"alloc_mb_per_op": float64(s.delta.allocBytes) / 1e6 / float64(s.attempted),
	}, nil
}
