// multiframe_test.go: the cross-frame batched decode must be bit-identical
// to decoding each frame alone, including when tiles straddle frame
// boundaries, on both the blocked-kernel and scalar-fallback paths.
package pipeline

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hadamard"
	"repro/internal/instrument"
)

// scalarOnly hides a decoder's blocked kernel so tests can force the
// per-column fallback path.
type scalarOnly struct{ hadamard.Decoder }

func multiframeFixture(t *testing.T, order int, widths []int) []FramePair {
	t.Helper()
	n := 1<<order - 1
	rng := rand.New(rand.NewSource(int64(len(widths))))
	pairs := make([]FramePair, len(widths))
	for i, w := range widths {
		src := instrument.NewFrame(n, w)
		for j := range src.Data {
			src.Data[j] = rng.NormFloat64() * 300
		}
		pairs[i] = FramePair{Dst: instrument.NewFrame(n, w), Src: src}
	}
	return pairs
}

// TestDeconvolveFramesMatchesSingle pins the concatenated-column batch
// against the per-column scalar Decoder.Decode reference, bit for bit,
// across width mixes where tiles span two and three frames, for 1 and 2
// workers, on both decoder paths.
func TestDeconvolveFramesMatchesSingle(t *testing.T) {
	const order = 5
	factories := map[string]DecoderFactory{
		"batch": func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) },
		"scalar-fallback": func() (hadamard.Decoder, error) {
			d, err := hadamard.NewFHTDecoder(order)
			if err != nil {
				return nil, err
			}
			return scalarOnly{d}, nil
		},
	}
	for name, factory := range factories {
		for _, widths := range [][]int{
			{40},             // single frame, tail block
			{5, 16, 7},       // every tile spans a boundary
			{3, 3, 3, 3, 3},  // frames narrower than one tile
			{16, 32},         // aligned boundaries
			{1, 47, 2, 1, 9}, // ragged mix
		} {
			for _, workers := range []int{1, 2} {
				pairs := multiframeFixture(t, order, widths)
				if err := DeconvolveFramesIntoContext(context.Background(), pairs, factory, workers, nil); err != nil {
					t.Fatalf("%s widths %v workers %d: %v", name, widths, workers, err)
				}
				for i, p := range pairs {
					ref, err := factory()
					if err != nil {
						t.Fatal(err)
					}
					for c := 0; c < p.Src.TOFBins; c++ {
						want, err := ref.Decode(p.Src.DriftVector(c))
						if err != nil {
							t.Fatal(err)
						}
						for d, got := range p.Dst.DriftVector(c) {
							if got != want[d] {
								t.Fatalf("%s widths %v workers %d frame %d column %d row %d: batch %v != scalar %v",
									name, widths, workers, i, c, d, got, want[d])
							}
						}
					}
				}
			}
		}
	}
}

// TestDeconvolveFramesValidation exercises the geometry and input guards.
func TestDeconvolveFramesValidation(t *testing.T) {
	const order = 5
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	ctx := context.Background()
	if err := DeconvolveFramesIntoContext(ctx, nil, factory, 1, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
	n := 1<<order - 1
	good := FramePair{Dst: instrument.NewFrame(n, 4), Src: instrument.NewFrame(n, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{good}, nil, 1, nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Src: good.Src}}, factory, 1, nil); err == nil {
		t.Error("nil dst accepted")
	}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Dst: good.Dst}}, factory, 1, nil); err == nil {
		t.Error("nil src accepted")
	}
	mismatched := FramePair{Dst: instrument.NewFrame(n, 5), Src: instrument.NewFrame(n, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{mismatched}, factory, 1, nil); err == nil {
		t.Error("geometry mismatch accepted")
	}
	other := FramePair{Dst: instrument.NewFrame(2*n+1, 4), Src: instrument.NewFrame(2*n+1, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{good, other}, factory, 1, nil); err == nil {
		t.Error("mixed drift-bin batch accepted")
	}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{other}, factory, 1, nil); err == nil {
		t.Error("decoder length mismatch accepted")
	}
	if _, err := NewFrameDecoder(nil, 4); err == nil {
		t.Error("nil factory accepted by NewFrameDecoder")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := DeconvolveFramesIntoContext(cancelled, []FramePair{good}, factory, 1, nil); err == nil {
		t.Error("cancelled context not surfaced")
	}
}
