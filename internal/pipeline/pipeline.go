// Package pipeline is the CPU-side software half of the hybrid application:
// a concurrent streaming processor that deconvolves multiplexed frames with
// a pool of workers, preserving frame order, with backpressure through
// bounded channels.  It follows the Effective Go concurrency idiom: share
// the frames by communicating them, not by locking them.
//
// Frames are decoded in column blocks (DefaultBlockColumns m/z columns at a
// time) through hadamard.BatchDecoder when the configured decoder supports
// it: workers claim whole blocks with one atomic increment, gather the
// block into a lane-contiguous tile, run the blocked kernel, and scatter
// the result back — no per-column allocation and ~B× less claim contention
// than the per-column scheme (see docs/PERFORMANCE.md).
//
// DeconvolveFramesIntoContext is the one frame-decode entry point: it
// decodes any number of frames (one is the common case) into caller-owned
// destinations as one concatenated column space.  It and the
// StreamProcessor accept an optional telemetry registry; passing nil
// costs one nil check per event (see BenchmarkTelemetryOverhead in
// internal/telemetry).  Exported families: pipeline_frames_total,
// pipeline_columns_total, pipeline_errors_total, pipeline_block_decode_ns,
// pipeline_column_decode_ns, pipeline_worker_busy_ns_total,
// pipeline_workers, and the stream-processor families pipeline_stream_*
// (see docs/OBSERVABILITY.md).
package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// DefaultBlockColumns is the column-block width of the batched decode
// path: the number of m/z columns gathered into one lane-contiguous tile
// per claim.  16 lanes keep an order-9 work tile (512 rows × 16 lanes ×
// 8 B = 64 KiB) inside L2 while amortizing index arithmetic and the
// atomic claim over the block.
const DefaultBlockColumns = 16

// DecoderFactory builds one decoder per worker, so workers never share
// mutable decoder state.
type DecoderFactory func() (hadamard.Decoder, error)

// frameMetrics bundles the telemetry handles of the column-parallel
// deconvolution path; the zero value (all-nil handles) is the
// un-instrumented no-op configuration.
type frameMetrics struct {
	frames       *telemetry.Counter
	columns      *telemetry.Counter
	errs         *telemetry.Counter
	blockLatency *telemetry.Histogram
	colLatency   *telemetry.Histogram
	workerBusy   *telemetry.Counter
	workers      *telemetry.Gauge
}

// newFrameMetrics resolves the handles once per frame; on a nil registry
// every handle is nil.
func newFrameMetrics(reg *telemetry.Registry) frameMetrics {
	return frameMetrics{
		frames:       reg.Counter("pipeline_frames_total", "frames deconvolved by the CPU pipeline"),
		columns:      reg.Counter("pipeline_columns_total", "m/z columns decoded by the CPU pipeline"),
		errs:         reg.Counter("pipeline_errors_total", "worker errors during frame deconvolution"),
		blockLatency: reg.Histogram("pipeline_block_decode_ns", "per-block software decode latency, nanoseconds"),
		colLatency:   reg.Histogram("pipeline_column_decode_ns", "per-column software decode latency, nanoseconds"),
		workerBusy:   reg.Counter("pipeline_worker_busy_ns_total", "cumulative wall time workers spent decoding, nanoseconds"),
		workers:      reg.Gauge("pipeline_workers", "worker count of the most recent frame deconvolution"),
	}
}

// timed reports whether block decodes need a clock read at all; with a
// nil registry both latency handles are nil and timing is skipped.
func (m *frameMetrics) timed() bool {
	return m.blockLatency != nil || m.colLatency != nil
}

// observeBlock records one decoded block: one observation in the block
// histogram and lanes amortized observations in the per-column histogram,
// so per-column consumers (EXPERIMENTS E3, the fpga-pipeline example) keep
// a count equal to columns decoded.
func (m *frameMetrics) observeBlock(ns int64, lanes int) {
	m.blockLatency.Observe(float64(ns))
	perCol := float64(ns) / float64(lanes)
	for i := 0; i < lanes; i++ {
		m.colLatency.Observe(perCol)
	}
}

// FrameDecoder is a reusable per-worker frame decoding engine: one decoder
// plus the column-block tiles it decodes through.  When the decoder
// implements hadamard.BatchDecoder, decodeSpan runs the blocked
// gather → DecodeBatch → scatter path with zero steady-state allocation;
// otherwise it falls back to per-column Decode calls.  A FrameDecoder
// holds mutable scratch and must not be shared between goroutines.
type FrameDecoder struct {
	dec   hadamard.Decoder
	batch hadamard.BatchDecoder // nil when dec has no blocked kernel
	block int
	src   *hadamard.ColumnBlock
	dst   *hadamard.ColumnBlock
	col   []float64 // per-column staging for the fallback path
}

// NewFrameDecoder builds a FrameDecoder from one factory invocation.
// block <= 0 selects DefaultBlockColumns.
func NewFrameDecoder(factory DecoderFactory, block int) (*FrameDecoder, error) {
	if factory == nil {
		return nil, fmt.Errorf("pipeline: nil decoder factory")
	}
	if block <= 0 {
		block = DefaultBlockColumns
	}
	dec, err := factory()
	if err != nil {
		return nil, err
	}
	fd := &FrameDecoder{dec: dec, block: block}
	if b, ok := dec.(hadamard.BatchDecoder); ok {
		fd.batch = b
		fd.src = hadamard.NewColumnBlock(dec.Len(), block)
		fd.dst = hadamard.NewColumnBlock(dec.Len(), block)
	}
	return fd, nil
}

// Len reports the decoder's waveform length (frame drift bins).
func (fd *FrameDecoder) Len() int { return fd.dec.Len() }

// Job is one frame travelling through the stream processor.
type Job struct {
	Seq   int
	Frame *instrument.Frame
}

// Result pairs a processed frame with its sequence number and any error.
type Result struct {
	Seq   int
	Frame *instrument.Frame
	Err   error
}

// StreamStats reports stream-processor counters.
type StreamStats struct {
	FramesIn      int64
	FramesOut     int64
	ColumnsPerSec float64 // filled by callers who time the run
}

// StreamProcessor consumes a stream of multiplexed frames and emits
// deconvolved frames in input order, processing up to Workers frames
// concurrently (each frame itself deconvolved block-serially by one
// worker through a reusable FrameDecoder).
type StreamProcessor struct {
	Workers    int
	NewDecoder DecoderFactory
	// Depth bounds in-flight frames (backpressure); <= 0 means 2×Workers.
	Depth int
	// Metrics, when non-nil, receives stream telemetry: frames in/out,
	// per-frame decode latency, backpressure wait time and reorder-buffer
	// peak occupancy.
	Metrics *telemetry.Registry

	stats StreamStats
}

// NewStreamProcessor validates and constructs the processor.
func NewStreamProcessor(workers int, depth int, factory DecoderFactory) (*StreamProcessor, error) {
	if factory == nil {
		return nil, fmt.Errorf("pipeline: nil decoder factory")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 2 * workers
	}
	return &StreamProcessor{Workers: workers, NewDecoder: factory, Depth: depth}, nil
}

// Run consumes jobs from `in` until it closes, emitting ordered results on
// the returned channel.  Each worker builds one FrameDecoder up front and
// decodes whole frames serially through it, so the per-frame steady state
// allocates only the output frame; ordering is restored with a reorder
// buffer sized by Depth.  A decoding error is delivered in its slot's
// Result and processing continues.
func (sp *StreamProcessor) Run(in <-chan Job) <-chan Result {
	unordered := make(chan Result, sp.Depth)
	out := make(chan Result, sp.Depth)

	reg := sp.Metrics
	framesIn := reg.Counter("pipeline_stream_frames_in_total", "frames accepted by the stream processor")
	framesOut := reg.Counter("pipeline_stream_frames_out_total", "ordered frames emitted by the stream processor")
	frameLatency := reg.Histogram("pipeline_stream_frame_decode_ns", "per-frame stream decode latency, nanoseconds")
	backpressure := reg.Histogram("pipeline_stream_backpressure_wait_ns", "time a worker spent blocked handing a result downstream, nanoseconds")
	reorderPeak := reg.Gauge("pipeline_stream_reorder_peak", "peak occupancy of the reorder buffer, frames")

	var wg sync.WaitGroup
	for w := 0; w < sp.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fd, err := NewFrameDecoder(sp.NewDecoder, DefaultBlockColumns)
			for job := range in {
				atomic.AddInt64(&sp.stats.FramesIn, 1)
				framesIn.Inc()
				if err != nil {
					unordered <- Result{Seq: job.Seq, Err: err}
					continue
				}
				sp2 := frameLatency.Start()
				res := sp.processFrame(fd, job)
				sp2.Stop()
				wait := backpressure.Start()
				unordered <- res
				wait.Stop()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(unordered)
	}()

	// Reorder by sequence number.
	go func() {
		defer close(out)
		pendingMap := map[int]Result{}
		nextSeq := 0
		for r := range unordered {
			pendingMap[r.Seq] = r
			reorderPeak.SetMax(float64(len(pendingMap)))
			for {
				res, ok := pendingMap[nextSeq]
				if !ok {
					break
				}
				delete(pendingMap, nextSeq)
				atomic.AddInt64(&sp.stats.FramesOut, 1)
				framesOut.Inc()
				out <- res
				nextSeq++
			}
		}
		// Flush any stragglers (non-contiguous sequence numbers).
		for len(pendingMap) > 0 {
			min := -1
			for s := range pendingMap {
				if min < 0 || s < min {
					min = s
				}
			}
			res := pendingMap[min]
			delete(pendingMap, min)
			atomic.AddInt64(&sp.stats.FramesOut, 1)
			framesOut.Inc()
			out <- res
		}
	}()
	return out
}

func (sp *StreamProcessor) processFrame(fd *FrameDecoder, job Job) Result {
	f := job.Frame
	if f == nil {
		return Result{Seq: job.Seq, Err: fmt.Errorf("pipeline: nil frame in job %d", job.Seq)}
	}
	if fd.Len() != f.DriftBins {
		return Result{Seq: job.Seq, Err: fmt.Errorf("pipeline: decoder length %d != drift bins %d", fd.Len(), f.DriftBins)}
	}
	out := instrument.NewFrame(f.DriftBins, f.TOFBins)
	spans := []frameSpan{{pair: FramePair{Dst: out, Src: f}}}
	for t0 := 0; t0 < f.TOFBins; t0 += fd.block {
		if err := fd.decodeSpan(spans, t0, min(fd.block, f.TOFBins-t0)); err != nil {
			return Result{Seq: job.Seq, Err: err}
		}
	}
	return Result{Seq: job.Seq, Frame: out}
}

// Stats returns a snapshot of the counters.
func (sp *StreamProcessor) Stats() StreamStats {
	return StreamStats{
		FramesIn:  atomic.LoadInt64(&sp.stats.FramesIn),
		FramesOut: atomic.LoadInt64(&sp.stats.FramesOut),
	}
}
