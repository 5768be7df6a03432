// multiframe.go is the package's frame-decode entry point.  One frame is
// the one-pair case; several frames — typically same-order frames the
// acqserver coalescer gathered from different client sessions — are
// decoded as one concatenated column space, with column-block tiles
// spanning frame boundaries.  A batch of narrow frames therefore fills
// full-width tiles and pays one DecodeBatch call per tile instead of one
// short call per frame, amortizing the blocked kernel's fixed costs across
// sessions.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// FramePair couples one source frame with its caller-owned destination
// (same geometry, typically from an instrument.FramePool).
type FramePair struct {
	Dst, Src *instrument.Frame
}

// frameSpan locates one pair in the concatenated column space.
type frameSpan struct {
	pair  FramePair
	start int // first global column
}

// DeconvolveFramesIntoContext deconvolves every pair's Src into its Dst,
// treating the pairs as one concatenated column space: workers claim
// DefaultBlockColumns-wide global column blocks with one atomic increment
// each, and a block that straddles a frame boundary gathers its lanes from
// every overlapped frame into one tile before the single DecodeBatch call.
// All sources must share the decoder's drift-bin count; TOF widths may
// differ per frame.  Cancellation stops every worker within one block.  On
// error the destination frames hold partial results and must not be used.
// workers <= 0 selects GOMAXPROCS; the count is clamped to the number of
// blocks.  If several workers fail, every distinct error is returned,
// joined with errors.Join.
func DeconvolveFramesIntoContext(ctx context.Context, pairs []FramePair, newDecoder DecoderFactory, workers int, reg *telemetry.Registry) error {
	if len(pairs) == 0 {
		return nil
	}
	if newDecoder == nil {
		return fmt.Errorf("pipeline: nil decoder factory")
	}
	spans := make([]frameSpan, len(pairs))
	total := 0
	for i, p := range pairs {
		if p.Src == nil || p.Dst == nil {
			return fmt.Errorf("pipeline: nil frame in pair %d", i)
		}
		if p.Dst.DriftBins != p.Src.DriftBins || p.Dst.TOFBins != p.Src.TOFBins {
			return fmt.Errorf("pipeline: pair %d dst %dx%d != src %dx%d",
				i, p.Dst.DriftBins, p.Dst.TOFBins, p.Src.DriftBins, p.Src.TOFBins)
		}
		if p.Src.DriftBins != pairs[0].Src.DriftBins {
			return fmt.Errorf("pipeline: pair %d drift bins %d != pair 0's %d",
				i, p.Src.DriftBins, pairs[0].Src.DriftBins)
		}
		spans[i] = frameSpan{pair: p, start: total}
		total += p.Src.TOFBins
	}
	block := DefaultBlockColumns
	blocks := (total + block - 1) / block
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	span := trace.SpanFromContext(ctx).Child("cpu_decode")
	span.SetInt("columns", int64(total))
	span.SetInt("workers", int64(workers))
	span.SetInt("frames", int64(len(pairs)))
	defer span.End()
	m := newFrameMetrics(reg)
	m.workers.Set(float64(workers))
	var next int64 = -1
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			busy := m.workerBusy.StartSpan()
			defer busy.Stop()
			fd, err := NewFrameDecoder(newDecoder, block)
			if err != nil {
				errs <- err
				return
			}
			if fd.Len() != pairs[0].Src.DriftBins {
				errs <- fmt.Errorf("pipeline: decoder length %d != drift bins %d", fd.Len(), pairs[0].Src.DriftBins)
				return
			}
			for {
				if err := ctx.Err(); err != nil {
					errs <- err
					return
				}
				blk := int(atomic.AddInt64(&next, 1))
				if blk >= blocks {
					return
				}
				g0 := blk * block
				lanes := block
				if g0+lanes > total {
					lanes = total - g0
				}
				var start time.Time
				if m.timed() {
					start = time.Now()
				}
				if err := fd.decodeSpan(spans, g0, lanes); err != nil {
					errs <- err
					return
				}
				if m.timed() {
					m.observeBlock(time.Since(start).Nanoseconds(), lanes)
				}
				m.columns.Add(int64(lanes))
			}
		}()
	}
	wg.Wait()
	close(errs)
	var all []error
	for err := range errs {
		if err != nil {
			m.errs.Inc()
			all = append(all, err)
		}
	}
	if len(all) > 0 {
		return errors.Join(all...)
	}
	m.frames.Add(int64(len(pairs)))
	return nil
}

// decodeSpan decodes global columns [g0, g0+lanes) of the concatenated
// column space described by spans, gathering each overlapped frame's
// segment into the right lane offset of one shared tile, running the
// blocked kernel once, and scattering segments back.  Decoders without a
// blocked kernel fall back to per-column Decode across the span.
func (fd *FrameDecoder) decodeSpan(spans []frameSpan, g0, lanes int) error {
	n := fd.Len()
	// First frame overlapping g0: spans are start-ordered, batches are a
	// handful of frames, so a linear scan wins over binary search.
	i := 0
	for i+1 < len(spans) && spans[i+1].start <= g0 {
		i++
	}
	if fd.batch == nil {
		if cap(fd.col) < n {
			fd.col = make([]float64, n)
		}
		col := fd.col[:n]
		for g := g0; g < g0+lanes; g++ {
			for g >= spans[i].start+spans[i].pair.Src.TOFBins {
				i++
			}
			t := g - spans[i].start
			spans[i].pair.Src.DriftVectorInto(t, col)
			x, err := fd.dec.Decode(col)
			if err != nil {
				return err
			}
			spans[i].pair.Dst.SetDriftVector(t, x)
		}
		return nil
	}
	fd.src.Reset(n, lanes)
	fd.dst.Reset(n, lanes)
	for l0, j := 0, i; l0 < lanes; j++ {
		sp := spans[j]
		t0 := g0 + l0 - sp.start
		k := sp.pair.Src.TOFBins - t0
		if k > lanes-l0 {
			k = lanes - l0
		}
		sp.pair.Src.GatherColumnsAt(t0, k, fd.src.Data, lanes, l0)
		l0 += k
	}
	if err := fd.batch.DecodeBatch(fd.dst, fd.src); err != nil {
		return err
	}
	for l0, j := 0, i; l0 < lanes; j++ {
		sp := spans[j]
		t0 := g0 + l0 - sp.start
		k := sp.pair.Src.TOFBins - t0
		if k > lanes-l0 {
			k = lanes - l0
		}
		sp.pair.Dst.ScatterColumnsAt(t0, k, fd.dst.Data, lanes, l0)
		l0 += k
	}
	return nil
}
