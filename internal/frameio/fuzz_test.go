// fuzz_test.go: coverage-guided fuzzing of the frame decoder.  The decoder
// is the one place the repository parses attacker-controllable bytes (a
// frameio payload arriving over the acqserver wire), so it must never
// panic, never allocate unboundedly, and must round-trip whatever it
// accepts.  `make fuzz-short` runs a brief pass as part of `make check`.
package frameio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/instrument"
)

// fuzzLimits keeps the fuzz decode cheap: a malicious header may still
// declare up to 64k cells (512 KiB decoded), so iterations stay fast.
var fuzzLimits = Limits{
	MaxHeaderBytes: 4096,
	MaxDriftBins:   1024,
	MaxTOFBins:     1024,
	MaxCells:       1 << 16,
}

// FuzzRead throws arbitrary bytes at Decode.  Inputs it accepts must
// re-encode (Raw) and decode again to bit-identical cells and identical
// metadata — the decoder's round-trip invariant — and must decode to the
// same cells into a recycled frame full of stale values as into a fresh
// one.
func FuzzRead(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []struct {
		drift, tof int
		meta       Metadata
		enc        Encoding
	}{
		{3, 2, nil, Raw},
		{7, 4, Metadata{"mode": "multiplexed", "order": "3"}, Delta},
		{15, 8, Metadata{"seed": "42"}, Raw},
		{31, 3, nil, Delta},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, countsFrame(rng, seed.drift, seed.tof), seed.meta, seed.enc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Corrupt variants reach the error paths immediately.
	f.Add([]byte("HTIMSFR1"))
	f.Add([]byte("HTIMSFR1\x00\x00\x00\x00"))
	f.Add([]byte("not a frame at all"))
	for _, seed := range malformedSeeds(f) {
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, meta, err := Decode(data, fuzzLimits, nil)
		if err != nil {
			return
		}
		stale, _, err := Decode(data, fuzzLimits, func(drift, tof int) *instrument.Frame {
			g := instrument.NewFrame(drift, tof)
			for i := range g.Data {
				g.Data[i] = math.NaN()
			}
			return g
		})
		if err != nil {
			t.Fatalf("decode into a recycled frame failed: %v", err)
		}
		for i := range frame.Data {
			if math.Float64bits(frame.Data[i]) != math.Float64bits(stale.Data[i]) {
				t.Fatalf("recycled frame kept a stale cell %d", i)
			}
		}
		if frame.DriftBins <= 0 || frame.TOFBins <= 0 ||
			len(frame.Data) != frame.DriftBins*frame.TOFBins {
			t.Fatalf("accepted inconsistent frame %dx%d with %d cells",
				frame.DriftBins, frame.TOFBins, len(frame.Data))
		}
		var buf bytes.Buffer
		if err := Write(&buf, frame, meta, Raw); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		again, meta2, err := Decode(buf.Bytes(), fuzzLimits, nil)
		if err != nil {
			t.Fatalf("re-decoding re-encoded frame: %v", err)
		}
		if again.DriftBins != frame.DriftBins || again.TOFBins != frame.TOFBins {
			t.Fatalf("round trip changed geometry %dx%d -> %dx%d",
				frame.DriftBins, frame.TOFBins, again.DriftBins, again.TOFBins)
		}
		for i := range frame.Data {
			if math.Float64bits(frame.Data[i]) != math.Float64bits(again.Data[i]) {
				t.Fatalf("round trip changed cell %d: %x -> %x",
					i, math.Float64bits(frame.Data[i]), math.Float64bits(again.Data[i]))
			}
		}
		if len(meta2) != len(meta) {
			t.Fatalf("round trip changed metadata %v -> %v", meta, meta2)
		}
		for k, v := range meta {
			if meta2[k] != v {
				t.Fatalf("round trip changed metadata key %q: %q -> %q", k, v, meta2[k])
			}
		}
	})
}

// TestFuzzSeedsDecode keeps the seed corpus meaningful under plain `go
// test`: the well-formed seeds must decode, streaming from a reader that
// yields one byte at a time (the degenerate net.Conn case).
func TestFuzzSeedsDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := countsFrame(rng, 31, 3)
	var buf bytes.Buffer
	if err := Write(&buf, f, Metadata{"k": "v"}, Delta); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadLimited(&oneByteReader{data: buf.Bytes()}, fuzzLimits)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(got, f) {
		t.Fatal("byte-at-a-time decode corrupted frame")
	}
}

// malformedSeed is a corrupt encoding and a fragment of the error Decode
// must report for it.
type malformedSeed struct {
	name, wantErr string
	data          []byte
}

// malformedSeeds builds encodings that fail deep in the input: an
// overlong varint, a Raw payload one byte short, a header declaring more
// cells than the bytes that follow, and a metadata string length that
// overflows int.
func malformedSeeds(tb testing.TB) []malformedSeed {
	rng := rand.New(rand.NewSource(2))
	encode := func(drift, tof int, enc Encoding) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, countsFrame(rng, drift, tof), nil, enc); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	// An empty header is one count byte, so the payload starts at 8 magic
	// + 4 header length + 1 header + 8 geometry + 1 encoding.
	const payloadPos = 22
	delta := encode(4, 4, Delta)
	overlong := append(append([]byte{}, delta[:payloadPos]...), bytes.Repeat([]byte{0x80}, 11)...)
	overlong = append(overlong, delta[payloadPos:]...)
	raw := encode(4, 4, Raw)
	short := encode(7, 4, Delta)
	binary.LittleEndian.PutUint32(short[13:], 70) // 70 x 4 cells, payload holds 28+
	// A metadata string declaring 2^63 bytes, which overflows int.
	hugeKey := binary.AppendUvarint([]byte{1}, 1<<63)
	hugeKey = append(binary.LittleEndian.AppendUint32([]byte("HTIMSFR1"), uint32(len(hugeKey))), hugeKey...)
	return []malformedSeed{
		{"overlong varint", "cell 0: varint overflows", overlong},
		{"raw one byte short", "cell 15: unexpected EOF", raw[:len(raw)-1]},
		{"more cells than bytes", "cannot hold 280 cells", short},
		{"huge metadata string", "truncated metadata string", hugeKey},
	}
}

// TestDecodeMalformed pins the error each malformed seed reports: which
// check fires, and at which cell.
func TestDecodeMalformed(t *testing.T) {
	for _, seed := range malformedSeeds(t) {
		_, _, err := Decode(seed.data, fuzzLimits, func(drift, tof int) *instrument.Frame {
			if seed.name == "more cells than bytes" {
				t.Errorf("%s: frame obtained before the payload bound was checked", seed.name)
			}
			return instrument.NewFrame(drift, tof)
		})
		if err == nil || !strings.Contains(err.Error(), seed.wantErr) {
			t.Errorf("%s: got error %v, want one containing %q", seed.name, err, seed.wantErr)
		}
	}
}

// oneByteReader is a one-byte-per-Read reader over a fixed buffer.
type oneByteReader struct {
	data []byte
	pos  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}
