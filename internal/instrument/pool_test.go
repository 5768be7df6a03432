// pool_test.go: FramePool recycling semantics and the block accessors
// that feed the batched decode path.
package instrument

import (
	"math/rand"
	"testing"
)

func TestFramePoolGetZeroesReusedFrames(t *testing.T) {
	var p FramePool
	f := p.Get(4, 8)
	if f.DriftBins != 4 || f.TOFBins != 8 || len(f.Data) != 32 {
		t.Fatalf("bad geometry %d×%d len %d", f.DriftBins, f.TOFBins, len(f.Data))
	}
	for i := range f.Data {
		f.Data[i] = float64(i + 1)
	}
	p.Put(f)
	g := p.Get(2, 8) // smaller: must reuse capacity and come back zeroed
	if g.DriftBins != 2 || g.TOFBins != 8 || len(g.Data) != 16 {
		t.Fatalf("bad reshaped geometry %d×%d len %d", g.DriftBins, g.TOFBins, len(g.Data))
	}
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("reused frame not zeroed at %d: %v", i, v)
		}
	}
	p.Put(g)
	h := p.Get(100, 100) // larger than pooled capacity: fresh allocation
	if len(h.Data) != 10000 {
		t.Fatalf("bad fresh frame len %d", len(h.Data))
	}
	p.Put(nil) // must not panic
}

// TestGatherScatterColumnsRoundTrip gathers column ranges into lane
// offsets of a wider tile and scatters them back into a fresh frame.
func TestGatherScatterColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewFrame(7, 13)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	for _, tc := range []struct{ t0, lanes, tileLanes, l0 int }{
		{0, 1, 1, 0}, {0, 13, 13, 0}, {3, 4, 4, 0}, {11, 2, 2, 0}, // whole-tile
		{3, 4, 9, 5}, {0, 13, 16, 2}, // a segment of a wider tile
	} {
		tile := make([]float64, f.DriftBins*tc.tileLanes)
		f.GatherColumnsAt(tc.t0, tc.lanes, tile, tc.tileLanes, tc.l0)
		for l := 0; l < tc.lanes; l++ {
			want := f.DriftVector(tc.t0 + l)
			for d := 0; d < f.DriftBins; d++ {
				if tile[d*tc.tileLanes+tc.l0+l] != want[d] {
					t.Fatalf("gather %+v lane %d row %d mismatch", tc, l, d)
				}
			}
		}
		// Scatter into a fresh frame and compare the column range.
		g := NewFrame(f.DriftBins, f.TOFBins)
		g.ScatterColumnsAt(tc.t0, tc.lanes, tile, tc.tileLanes, tc.l0)
		for l := 0; l < tc.lanes; l++ {
			got := g.DriftVector(tc.t0 + l)
			want := f.DriftVector(tc.t0 + l)
			for d := range got {
				if got[d] != want[d] {
					t.Fatalf("scatter %+v lane %d row %d mismatch", tc, l, d)
				}
			}
		}
	}
}

func TestDriftVectorInto(t *testing.T) {
	f := NewFrame(5, 3)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	dst := make([]float64, 5)
	f.DriftVectorInto(1, dst)
	want := f.DriftVector(1)
	for d := range want {
		if dst[d] != want[d] {
			t.Fatalf("row %d: %v != %v", d, dst[d], want[d])
		}
	}
}
