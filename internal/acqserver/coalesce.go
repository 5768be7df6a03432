// coalesce.go: server-side micro-batching across sessions.  Every frame a
// shard serves carries the same m-sequence order (enforced at accept), so
// CPU-path frames from different clients can share one decode: a worker
// that picks up a frame waits up to Config.CoalesceWindow for batch-mates
// (or until Config.CoalesceFillTarget frames are gathered) and hands the
// batch to serve, the same function that answers a lone frame as a batch
// of one.  serve decodes the batch's CPU members as one concatenated
// column space through pipeline.DeconvolveFramesIntoContext — tiles span
// frame boundaries, so a burst of narrow frames fills full-width tiles and
// pays one blocked kernel call per tile instead of one short call per
// frame.
//
// Per-frame semantics survive batching: every member keeps its own trace
// tree (queue_wait ends at pickup, a coalesce_wait span covers the gather,
// the first member's tree carries the shared cpu_decode span), its own
// frame-log completion and exactly one answer, its own deadline (expired
// members are answered DEADLINE_EXCEEDED at dispatch; if the earliest
// deadline cuts the shared decode off, the rest are re-served as a smaller
// batch), its own RESULT with the batch's decode time apportioned by
// column share, and its own wide event annotated with the batch size.
// Hybrid-path frames are served one at a time — the modeled FPGA offload
// already amortizes per-frame costs in its own tile path.
package acqserver

import (
	"time"

	"repro/internal/telemetry/trace"
)

// gatherBatch collects a batch seeded with first: more tasks are drained
// from the shard queue until the fill target is reached, the coalesce
// window expires, or the queue closes (drain).  Every gathered task is
// picked up and spends the gather under a coalesce_wait span.  The batch
// is recorded in the acq_coalesce_* families before it is returned.
func (s *Server) gatherBatch(sh *shard, first *task) []*task {
	start := time.Now()
	var batch []*task
	var picked []time.Time
	var spans []trace.Span
	join := func(t *task) {
		s.pickup(t)
		batch = append(batch, t)
		picked = append(picked, time.Now())
		spans = append(spans, t.root.Child("coalesce_wait"))
	}
	join(first)
	trigger := "fill"
	timer := time.NewTimer(s.cfg.CoalesceWindow)
	defer timer.Stop()
gather:
	for len(batch) < s.cfg.CoalesceFillTarget {
		select {
		case t, ok := <-sh.ch:
			if !ok {
				trigger = "drain"
				break gather
			}
			sh.depth.Set(float64(len(sh.ch)))
			join(t)
		case <-timer.C:
			trigger = "window"
			break gather
		}
	}
	s.m.coalesceBatches[trigger].Inc()
	s.m.coalesceFill.Observe(float64(len(batch)))
	s.m.coalesceWait.Observe(float64(time.Since(start).Nanoseconds()))
	now := time.Now()
	for i, t := range batch {
		t.cwait = now.Sub(picked[i])
		spans[i].SetInt("batch", int64(len(batch)))
		spans[i].SetStr("trigger", trigger)
		spans[i].End()
	}
	return batch
}
