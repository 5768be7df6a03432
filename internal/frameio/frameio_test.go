package frameio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/instrument"
)

func countsFrame(rng *rand.Rand, drift, tof int) *instrument.Frame {
	f := instrument.NewFrame(drift, tof)
	for i := range f.Data {
		// Sparse integral counts, as an accumulated ADC frame holds.
		if rng.Intn(4) == 0 {
			f.Data[i] = float64(rng.Intn(5000))
		}
	}
	return f
}

func framesEqual(a, b *instrument.Frame) bool {
	if a.DriftBins != b.DriftBins || a.TOFBins != b.TOFBins || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func TestRoundTripBothEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := countsFrame(rng, 63, 32)
	meta := Metadata{"mode": "multiplexed+trap", "order": "8", "seed": "42"}
	for _, enc := range []Encoding{Raw, Delta} {
		var buf bytes.Buffer
		if err := Write(&buf, f, meta, enc); err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		got, gotMeta, err := Read(&buf)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if !framesEqual(got, f) {
			t.Fatalf("%v: round trip corrupted frame", enc)
		}
		if len(gotMeta) != len(meta) || gotMeta["mode"] != "multiplexed+trap" || gotMeta["order"] != "8" {
			t.Fatalf("%v: metadata %v", enc, gotMeta)
		}
	}
}

func TestRawHandlesNonIntegral(t *testing.T) {
	f := instrument.NewFrame(4, 4)
	f.Data[5] = 3.14159
	var buf bytes.Buffer
	if err := Write(&buf, f, nil, Raw); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[5] != 3.14159 {
		t.Error("raw round trip lost precision")
	}
	// Delta must reject it.
	if err := Write(&buf, f, nil, Delta); err == nil {
		t.Error("delta encoding should reject non-integral cells")
	}
}

// TestDeltaCompression: accumulated count frames shrink well below raw and
// CSV sizes.
func TestDeltaCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := countsFrame(rng, 255, 64)
	rawSize, err := EncodedSize(f, Raw)
	if err != nil {
		t.Fatal(err)
	}
	deltaSize, err := EncodedSize(f, Delta)
	if err != nil {
		t.Fatal(err)
	}
	if deltaSize >= rawSize/2 {
		t.Errorf("delta %d bytes should be well below raw %d", deltaSize, rawSize)
	}
	// And the estimate matches the actual written payload closely.
	var buf bytes.Buffer
	if err := Write(&buf, f, nil, Delta); err != nil {
		t.Fatal(err)
	}
	overhead := int64(8 + 4 + 4 + 4 + 1 + 1) // magic+lens+geometry+enc+meta count
	if got := int64(buf.Len()); got < deltaSize || got > deltaSize+overhead+16 {
		t.Errorf("written %d bytes vs estimated payload %d", got, deltaSize)
	}
	if CSVSize(f) <= deltaSize {
		t.Error("CSV should be larger than delta")
	}
	if CSVSize(nil) != 0 {
		t.Error("nil frame CSV size")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := countsFrame(rng, 15, 8)
	var buf bytes.Buffer
	if err := Write(&buf, f, Metadata{"k": "v"}, Delta); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated payload.
	if _, _, err := Read(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Error("truncated payload accepted")
	}
	// Empty input.
	if _, _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Unknown encoding byte: rebuild with a patched encoding.
	var buf2 bytes.Buffer
	if err := Write(&buf2, f, nil, Raw); err != nil {
		t.Fatal(err)
	}
	raw := buf2.Bytes()
	// encoding byte position: 8 magic + 4 hlen + hlen + 4 + 4.
	hlen := int(uint32(raw[8]) | uint32(raw[9])<<8 | uint32(raw[10])<<16 | uint32(raw[11])<<24)
	encPos := 8 + 4 + hlen + 8
	raw[encPos] = 99
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("unknown encoding accepted")
	}
}

func TestWriteErrors(t *testing.T) {
	if err := Write(&bytes.Buffer{}, nil, nil, Raw); err == nil {
		t.Error("nil frame accepted")
	}
	f := instrument.NewFrame(2, 2)
	if err := Write(&bytes.Buffer{}, f, nil, Encoding(7)); err == nil {
		t.Error("unknown encoding accepted")
	}
	if err := Write(&bytes.Buffer{}, f, Metadata{"": "v"}, Raw); err == nil {
		t.Error("empty metadata key accepted")
	}
	if _, err := EncodedSize(nil, Raw); err == nil {
		t.Error("nil frame size accepted")
	}
	if _, err := EncodedSize(f, Encoding(7)); err == nil {
		t.Error("unknown encoding size accepted")
	}
}

func TestEncodingString(t *testing.T) {
	if Raw.String() != "raw" || Delta.String() != "delta" {
		t.Error("encoding names wrong")
	}
	if !strings.Contains(Encoding(9).String(), "9") {
		t.Error("unknown encoding should render its value")
	}
}

// Property: any frame of integral counts survives a Delta round trip.
func TestDeltaRoundTripProperty(t *testing.T) {
	f := func(seed int64, drift, tof uint8) bool {
		d := int(drift%16) + 1
		to := int(tof%16) + 1
		rng := rand.New(rand.NewSource(seed))
		frame := countsFrame(rng, d, to)
		var buf bytes.Buffer
		if err := Write(&buf, frame, nil, Delta); err != nil {
			return false
		}
		got, _, err := Read(&buf)
		if err != nil {
			return false
		}
		return framesEqual(got, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	f := countsFrame(rng, 511, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, f, nil, Delta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := countsFrame(rng, 511, 256)
	var buf bytes.Buffer
	if err := Write(&buf, f, nil, Delta); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// wideDeltaFrame encodes a 511x1024 frame (the order-9 wide geometry the
// daemon serves) with Delta and an empty metadata header.
func wideDeltaFrame(tb testing.TB) (*instrument.Frame, []byte) {
	f := countsFrame(rand.New(rand.NewSource(10)), 511, 1024)
	var buf bytes.Buffer
	if err := Write(&buf, f, nil, Delta); err != nil {
		tb.Fatal(err)
	}
	return f, buf.Bytes()
}

// TestDecodeAllocs proves the serving-path decode allocates nothing: a
// wide delta frame with an empty header, decoded into a warm FramePool.
func TestDecodeAllocs(t *testing.T) {
	want, data := wideDeltaFrame(t)
	var pool instrument.FramePool
	pool.Put(pool.Get(511, 1024))
	allocs := testing.AllocsPerRun(20, func() {
		got, meta, err := Decode(data, DefaultLimits(), pool.Get)
		if err != nil || meta != nil || !framesEqual(got, want) {
			t.Fatalf("decode: err %v, meta %v, frame equal %v", err, meta, err == nil && framesEqual(got, want))
		}
		pool.Put(got)
	})
	if allocs != 0 {
		t.Errorf("Decode into a warm pool allocated %v times per frame, want 0", allocs)
	}
}

// BenchmarkDecodeWide measures the serving-path decode: one wide delta
// frame from a byte slice into a pooled frame.
func BenchmarkDecodeWide(b *testing.B) {
	_, data := wideDeltaFrame(b)
	var pool instrument.FramePool
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, err := Decode(data, DefaultLimits(), pool.Get)
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(f)
	}
}

// failWriter errors after allowing n bytes.
type failWriter struct {
	remaining int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.remaining {
		n := w.remaining
		w.remaining = 0
		return n, errShort
	}
	w.remaining -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

func TestWriteIOErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := countsFrame(rng, 8, 8)
	// Probe several truncation points: magic, header, geometry, payload.
	for _, allow := range []int{0, 4, 10, 14, 20, 30} {
		for _, enc := range []Encoding{Raw, Delta} {
			if err := Write(&failWriter{remaining: allow}, f, Metadata{"k": "v"}, enc); err == nil {
				t.Errorf("allow=%d enc=%v: expected write error", allow, enc)
			}
		}
	}
}

func TestReadBoundsRejection(t *testing.T) {
	// Oversized header length.
	var buf bytes.Buffer
	buf.Write([]byte("HTIMSFR1"))
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F}) // huge header length
	if _, _, err := Read(&buf); err == nil {
		t.Error("oversized header accepted")
	}
	// Zero geometry.
	rng := rand.New(rand.NewSource(7))
	f := countsFrame(rng, 4, 4)
	var good bytes.Buffer
	if err := Write(&good, f, nil, Raw); err != nil {
		t.Fatal(err)
	}
	raw := good.Bytes()
	// Patch drift bins (just after magic + 4-byte header len + 1-byte
	// header body [count=0]) to zero.
	hlen := int(uint32(raw[8]) | uint32(raw[9])<<8 | uint32(raw[10])<<16 | uint32(raw[11])<<24)
	geoPos := 8 + 4 + hlen
	for i := 0; i < 4; i++ {
		raw[geoPos+i] = 0
	}
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("zero drift bins accepted")
	}
}

func TestMetadataTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := countsFrame(rng, 4, 4)
	var buf bytes.Buffer
	if err := Write(&buf, f, Metadata{"key": "value"}, Raw); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Shrink the declared header length so metadata decoding truncates.
	raw[8] = 2
	raw[9], raw[10], raw[11] = 0, 0, 0
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("truncated metadata accepted")
	}
}

func TestReadLimitedRejectsBeforeAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := countsFrame(rng, 63, 8)
	var buf bytes.Buffer
	if err := Write(&buf, f, Metadata{"k": "v"}, Delta); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	lim := Limits{MaxHeaderBytes: 64, MaxDriftBins: 63, MaxTOFBins: 8, MaxCells: 63 * 8}
	if got, _, err := ReadLimited(bytes.NewReader(encoded), lim); err != nil {
		t.Fatalf("in-bounds frame rejected: %v", err)
	} else if !framesEqual(got, f) {
		t.Fatal("in-bounds frame corrupted")
	}

	cases := []struct {
		name string
		lim  Limits
	}{
		{"header", Limits{MaxHeaderBytes: 1, MaxDriftBins: 63, MaxTOFBins: 8, MaxCells: 63 * 8}},
		{"drift", Limits{MaxHeaderBytes: 64, MaxDriftBins: 62, MaxTOFBins: 8, MaxCells: 63 * 8}},
		{"tof", Limits{MaxHeaderBytes: 64, MaxDriftBins: 63, MaxTOFBins: 7, MaxCells: 63 * 8}},
		{"cells", Limits{MaxHeaderBytes: 64, MaxDriftBins: 63, MaxTOFBins: 8, MaxCells: 63*8 - 1}},
	}
	for _, c := range cases {
		if _, _, err := ReadLimited(bytes.NewReader(encoded), c.lim); err == nil {
			t.Errorf("%s bound not enforced", c.name)
		}
	}
}

func TestReadLimitedRejectsMaliciousGeometry(t *testing.T) {
	// A 17-byte header declaring a 2^30-cell frame must be rejected by
	// tight limits without ever allocating the 8 GiB payload.
	var buf bytes.Buffer
	buf.Write([]byte("HTIMSFR1"))
	buf.Write([]byte{0, 0, 0, 0}) // empty metadata header... almost:
	buf.Bytes()[8] = 1            // header length 1
	buf.WriteByte(0)              // metadata count = 0
	buf.Write([]byte{0, 0, 2, 0}) // drift bins = 1<<17
	buf.Write([]byte{0, 0, 2, 0}) // tof bins = 1<<17  (product 2^34)
	buf.WriteByte(0)              // raw encoding
	lim := Limits{MaxHeaderBytes: 1 << 10, MaxDriftBins: 4096, MaxTOFBins: 4096, MaxCells: 1 << 22}
	if _, _, err := ReadLimited(bytes.NewReader(buf.Bytes()), lim); err == nil {
		t.Fatal("absurd geometry accepted")
	}
	if _, _, err := ReadLimited(bytes.NewReader(buf.Bytes()), DefaultLimits()); err == nil {
		t.Fatal("2^34-cell geometry accepted even by default limits")
	}
}

// TestReadLimitedHugeLimits reads under limits whose longest encoding
// saturates int64: the read bound must still admit a real frame.
func TestReadLimitedHugeLimits(t *testing.T) {
	f := countsFrame(rand.New(rand.NewSource(11)), 4, 4)
	var buf bytes.Buffer
	if err := Write(&buf, f, nil, Delta); err != nil {
		t.Fatal(err)
	}
	lim := Limits{MaxHeaderBytes: 1 << 31, MaxDriftBins: 1 << 31, MaxTOFBins: 1 << 31, MaxCells: 1 << 62}
	got, _, err := ReadLimited(&buf, lim)
	if err != nil || !framesEqual(got, f) {
		t.Fatalf("decode under huge limits: %v", err)
	}
}

func TestReadLimitedValidatesLimits(t *testing.T) {
	if _, _, err := ReadLimited(bytes.NewReader(nil), Limits{}); err == nil {
		t.Fatal("zero limits accepted")
	}
}
