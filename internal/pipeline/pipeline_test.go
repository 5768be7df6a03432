package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/prs"
)

// encodedFrame builds a synthetic multiplexed frame whose every m/z column
// is an encoding of a known arrival distribution, so deconvolution has an
// exact expected output.
func encodedFrame(t testing.TB, order, tofBins int, seed int64) (*instrument.Frame, *instrument.Frame) {
	t.Helper()
	s := prs.MustMSequence(order)
	n := len(s)
	rng := rand.New(rand.NewSource(seed))
	truth := instrument.NewFrame(n, tofBins)
	enc := instrument.NewFrame(n, tofBins)
	for c := 0; c < tofBins; c++ {
		x := make([]float64, n)
		for k := 0; k < 3; k++ {
			x[rng.Intn(n)] = 50 + rng.Float64()*200
		}
		y, err := hadamard.Encode(s, x)
		if err != nil {
			t.Fatal(err)
		}
		truth.SetDriftVector(c, x)
		enc.SetDriftVector(c, y)
	}
	return enc, truth
}

func fhtFactory(order int) DecoderFactory {
	return func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
}

func framesClose(a, b *instrument.Frame, tol float64) bool {
	if a.DriftBins != b.DriftBins || a.TOFBins != b.TOFBins {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// decodeOne decodes f into a fresh frame through the package's one decode
// entry point, DeconvolveFramesIntoContext, as a batch of one.
func decodeOne(ctx context.Context, f *instrument.Frame, factory DecoderFactory, workers int) (*instrument.Frame, error) {
	var dst *instrument.Frame
	if f != nil {
		dst = instrument.NewFrame(f.DriftBins, f.TOFBins)
	}
	return dst, DeconvolveFramesIntoContext(ctx, []FramePair{{Dst: dst, Src: f}}, factory, workers, nil)
}

func TestDeconvolveFrameRecoversTruth(t *testing.T) {
	enc, truth := encodedFrame(t, 6, 32, 60)
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := decodeOne(context.Background(), enc, fhtFactory(6), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !framesClose(got, truth, 1e-6) {
			t.Errorf("workers=%d: deconvolved frame does not match truth", workers)
		}
	}
}

func TestDeconvolveFrameErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := decodeOne(ctx, nil, fhtFactory(6), 1); err == nil {
		t.Error("nil frame")
	}
	enc, _ := encodedFrame(t, 6, 4, 61)
	if _, err := decodeOne(ctx, enc, nil, 1); err == nil {
		t.Error("nil factory")
	}
	// Wrong decoder length.
	if _, err := decodeOne(ctx, enc, fhtFactory(5), 2); err == nil {
		t.Error("mismatched decoder length should fail")
	}
	// Factory error propagates.
	failing := func() (hadamard.Decoder, error) { return nil, fmt.Errorf("boom") }
	if _, err := decodeOne(ctx, enc, failing, 2); err == nil {
		t.Error("factory error should propagate")
	}
}

func TestDeconvolveFrameMoreWorkersThanColumns(t *testing.T) {
	enc, truth := encodedFrame(t, 5, 3, 62)
	got, err := decodeOne(context.Background(), enc, fhtFactory(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !framesClose(got, truth, 1e-6) {
		t.Error("oversubscribed workers broke deconvolution")
	}
}

func TestStreamProcessorOrdering(t *testing.T) {
	const nFrames = 12
	sp, err := NewStreamProcessor(4, 4, fhtFactory(6))
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan Job)
	out := sp.Run(in)
	truths := make([]*instrument.Frame, nFrames)
	go func() {
		for i := 0; i < nFrames; i++ {
			enc, truth := encodedFrame(t, 6, 8, int64(100+i))
			truths[i] = truth
			in <- Job{Seq: i, Frame: enc}
		}
		close(in)
	}()
	seen := 0
	for r := range out {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Seq != seen {
			t.Fatalf("result %d arrived out of order (want %d)", r.Seq, seen)
		}
		if !framesClose(r.Frame, truths[r.Seq], 1e-6) {
			t.Fatalf("frame %d incorrect", r.Seq)
		}
		seen++
	}
	if seen != nFrames {
		t.Fatalf("got %d frames, want %d", seen, nFrames)
	}
	st := sp.Stats()
	if st.FramesIn != nFrames || st.FramesOut != nFrames {
		t.Errorf("stats %+v", st)
	}
}

func TestStreamProcessorErrorInStream(t *testing.T) {
	sp, _ := NewStreamProcessor(2, 2, fhtFactory(6))
	in := make(chan Job, 3)
	enc, _ := encodedFrame(t, 6, 4, 200)
	in <- Job{Seq: 0, Frame: enc}
	in <- Job{Seq: 1, Frame: nil} // broken job
	enc2, _ := encodedFrame(t, 6, 4, 201)
	in <- Job{Seq: 2, Frame: enc2}
	close(in)
	var errs, oks int
	for r := range sp.Run(in) {
		if r.Err != nil {
			errs++
		} else {
			oks++
		}
	}
	if errs != 1 || oks != 2 {
		t.Errorf("errs %d oks %d, want 1 and 2", errs, oks)
	}
}

func TestStreamProcessorFactoryError(t *testing.T) {
	sp, _ := NewStreamProcessor(1, 1, func() (hadamard.Decoder, error) { return nil, fmt.Errorf("no decoder") })
	in := make(chan Job, 1)
	enc, _ := encodedFrame(t, 6, 2, 300)
	in <- Job{Seq: 0, Frame: enc}
	close(in)
	r := <-sp.Run(in)
	if r.Err == nil {
		t.Error("factory error should surface in result")
	}
}

func TestStreamProcessorWrongGeometry(t *testing.T) {
	sp, _ := NewStreamProcessor(1, 1, fhtFactory(5))
	in := make(chan Job, 1)
	enc, _ := encodedFrame(t, 6, 2, 301) // 63 bins, decoder expects 31
	in <- Job{Seq: 0, Frame: enc}
	close(in)
	r := <-sp.Run(in)
	if r.Err == nil {
		t.Error("geometry mismatch should surface in result")
	}
}

func TestNewStreamProcessorDefaults(t *testing.T) {
	sp, err := NewStreamProcessor(0, 0, fhtFactory(6))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Workers < 1 || sp.Depth < 2 {
		t.Errorf("defaults not applied: workers %d depth %d", sp.Workers, sp.Depth)
	}
	if _, err := NewStreamProcessor(1, 1, nil); err == nil {
		t.Error("nil factory should fail")
	}
}

func BenchmarkDeconvolveFrameSerial(b *testing.B) {
	enc, _ := encodedFrame(b, 9, 64, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeOne(context.Background(), enc, fhtFactory(9), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeconvolveFrameParallel(b *testing.B) {
	enc, _ := encodedFrame(b, 9, 64, 401)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeOne(context.Background(), enc, fhtFactory(9), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// countdownCtx reports Canceled starting with the (after+1)-th Err call —
// a deterministic stand-in for a deadline firing mid-frame.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestDeconvolveFrameContextPreCancelled(t *testing.T) {
	f, _ := encodedFrame(t, 5, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := decodeOne(ctx, f, fhtFactory(5), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDeconvolveFrameContextMidRun(t *testing.T) {
	f, _ := encodedFrame(t, 5, 64, 1)
	// One worker: its first pre-block check passes, the second cancels,
	// so the frame is abandoned after exactly one block of work.
	ctx := &countdownCtx{Context: context.Background(), after: 1}
	var blocks atomic.Int64
	counting := func() (hadamard.Decoder, error) {
		d, err := hadamard.NewFHTDecoder(5)
		return countingDecoder{d, &blocks}, err
	}
	if _, err := decodeOne(ctx, f, counting, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled mid-frame, got %v", err)
	}
	if got := blocks.Load(); got != 1 {
		t.Fatalf("decoded %d blocks before the cancellation, want 1", got)
	}
}

// countingDecoder counts blocked-kernel calls.
type countingDecoder struct {
	*hadamard.FHTDecoder
	blocks *atomic.Int64
}

func (d countingDecoder) DecodeBatch(dst, src *hadamard.ColumnBlock) error {
	d.blocks.Add(1)
	return d.FHTDecoder.DecodeBatch(dst, src)
}

func TestDeconvolveFrameIntoContextRecoversTruth(t *testing.T) {
	enc, truth := encodedFrame(t, 6, 37, 63) // 37 columns: odd tail block
	var pool instrument.FramePool
	for _, workers := range []int{1, 3, 0} {
		dst := pool.Get(enc.DriftBins, enc.TOFBins)
		if err := DeconvolveFramesIntoContext(context.Background(), []FramePair{{Dst: dst, Src: enc}}, fhtFactory(6), workers, nil); err != nil {
			t.Fatal(err)
		}
		if !framesClose(dst, truth, 1e-6) {
			t.Errorf("workers=%d: deconvolved frame does not match truth", workers)
		}
		pool.Put(dst)
	}
}

// TestDeconvolveFramesPairErrors: a one-pair batch rejects a nil
// destination, a nil source and a destination of the wrong geometry.
func TestDeconvolveFramesPairErrors(t *testing.T) {
	enc, _ := encodedFrame(t, 5, 4, 64)
	dst := instrument.NewFrame(enc.DriftBins, enc.TOFBins)
	ctx := context.Background()
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Src: enc}}, fhtFactory(5), 1, nil); err == nil {
		t.Error("nil dst accepted")
	}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Dst: dst}}, fhtFactory(5), 1, nil); err == nil {
		t.Error("nil src accepted")
	}
	bad := instrument.NewFrame(enc.DriftBins, enc.TOFBins+1)
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Dst: bad, Src: enc}}, fhtFactory(5), 1, nil); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

// TestFrameDecoderFallbackMatchesBatch routes the same frame through a
// WeightedDecoder (no blocked kernel — exercises the per-column fallback)
// and the batched FHT path; with unit weights both must recover the truth.
func TestFrameDecoderFallbackMatchesBatch(t *testing.T) {
	enc, truth := encodedFrame(t, 6, 19, 65)
	weighted := func() (hadamard.Decoder, error) {
		base, err := hadamard.NewFHTDecoder(6)
		if err != nil {
			return nil, err
		}
		return hadamard.NewWeightedDecoder(base), nil
	}
	for name, factory := range map[string]DecoderFactory{"fallback": weighted, "batch": fhtFactory(6)} {
		out, err := decodeOne(context.Background(), enc, factory, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !framesClose(out, truth, 1e-6) {
			t.Errorf("%s path does not recover truth", name)
		}
	}
}

// TestFrameDecoderErrors: the per-worker FrameDecoder refuses a nil
// factory, surfaces the factory's own error, and refuses a decoder whose
// length differs from the frames' drift bins, on both the blocked and the
// per-column path.
func TestFrameDecoderErrors(t *testing.T) {
	if _, err := NewFrameDecoder(nil, 4); err == nil {
		t.Error("nil factory accepted")
	}
	failing := func() (hadamard.Decoder, error) { return nil, errors.New("no decoder") }
	if _, err := NewFrameDecoder(failing, 4); err == nil {
		t.Error("factory error swallowed by NewFrameDecoder")
	}
	enc, _ := encodedFrame(t, 6, 8, 67)
	pair := []FramePair{{Dst: instrument.NewFrame(enc.DriftBins, enc.TOFBins), Src: enc}}
	ctx := context.Background()
	if err := DeconvolveFramesIntoContext(ctx, pair, failing, 1, nil); err == nil {
		t.Error("factory error swallowed by DeconvolveFramesIntoContext")
	}
	weighted := func() (hadamard.Decoder, error) {
		base, err := hadamard.NewFHTDecoder(5)
		if err != nil {
			return nil, err
		}
		return hadamard.NewWeightedDecoder(base), nil
	}
	for name, factory := range map[string]DecoderFactory{"fallback": weighted, "batch": fhtFactory(5)} {
		if err := DeconvolveFramesIntoContext(ctx, pair, factory, 2, nil); err == nil {
			t.Errorf("%s path: decoder length mismatch accepted", name)
		}
	}
}

// TestFrameDecoderDecodeSpanAllocs is the pipeline-level allocation gate:
// once the tiles are warm, decoding blocks into caller-owned frames must
// not allocate — for one frame and for tiles straddling two frames.
func TestFrameDecoderDecodeSpanAllocs(t *testing.T) {
	enc, _ := encodedFrame(t, 8, 64, 68)
	enc2, _ := encodedFrame(t, 8, 24, 69)
	fd, err := NewFrameDecoder(fhtFactory(8), DefaultBlockColumns)
	if err != nil {
		t.Fatal(err)
	}
	spans := []frameSpan{
		{pair: FramePair{Dst: instrument.NewFrame(enc.DriftBins, enc.TOFBins), Src: enc}},
		{pair: FramePair{Dst: instrument.NewFrame(enc2.DriftBins, enc2.TOFBins), Src: enc2}, start: enc.TOFBins},
	}
	total := enc.TOFBins + enc2.TOFBins
	decodeAll := func(cols int) {
		for g0 := 0; g0 < cols; g0 += DefaultBlockColumns {
			if err := fd.decodeSpan(spans, g0, min(DefaultBlockColumns, cols-g0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll(total)
	for _, cols := range []int{enc.TOFBins, total} {
		if a := testing.AllocsPerRun(20, func() { decodeAll(cols) }); a != 0 {
			t.Errorf("decodeSpan over %d columns allocates %g per pass in steady state", cols, a)
		}
	}
}
