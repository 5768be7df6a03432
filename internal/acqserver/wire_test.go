package acqserver

import (
	"bytes"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	// Version 0 encodes as version 1 for compatibility with old callers.
	h := Header{Type: MsgFrame, ReqID: 0xDEADBEEFCAFE, PayloadLen: 12345}
	buf := AppendHeader(nil, h)
	if len(buf) != headerSize {
		t.Fatalf("v1 header is %d bytes, want %d", len(buf), headerSize)
	}
	got, err := ReadHeader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	h.Version = ProtocolV1
	if got != h {
		t.Fatalf("round trip %+v != %+v", got, h)
	}

	h2 := Header{Version: ProtocolV2, Type: MsgResult, ReqID: 7, PayloadLen: 99, TraceID: 0xFEEDFACE}
	buf = AppendHeader(nil, h2)
	if len(buf) != headerSize+traceIDSize {
		t.Fatalf("v2 header is %d bytes, want %d", len(buf), headerSize+traceIDSize)
	}
	got, err = ReadHeader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got != h2 {
		t.Fatalf("v2 round trip %+v != %+v", got, h2)
	}
	// A v1 reader never sees the trace id; a v1 header never carries one.
	if AppendHeader(nil, Header{Version: ProtocolV1, TraceID: 5})[4] != ProtocolV1 {
		t.Error("v1 header mis-versioned")
	}
	if len(AppendHeader(nil, Header{Version: ProtocolV1, TraceID: 5})) != headerSize {
		t.Error("v1 header grew a trace id")
	}
}

func TestHeaderRejectsBadMagicAndVersion(t *testing.T) {
	h := AppendHeader(nil, Header{Type: MsgHello})
	bad := append([]byte(nil), h...)
	bad[0] = 'X'
	if _, err := ReadHeader(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), h...)
	bad[4] = 99
	if _, err := ReadHeader(bytes.NewReader(bad)); err == nil {
		t.Error("future version accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := &Result{
		Shard:       3,
		QueueWaitNs: 123456,
		ProcessNs:   789012,
		SimulatedNs: 42,
		Saturations: 7,
		Peaks: []PeakSummary{
			{Centroid: 12.5, Height: 1000, Area: 4800, SNR: 55.5},
			{Centroid: 200.25, Height: 10, Area: 31, SNR: 5.1},
		},
	}
	buf, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != r.Shard || got.QueueWaitNs != r.QueueWaitNs || got.SimulatedNs != r.SimulatedNs ||
		got.Saturations != r.Saturations || len(got.Peaks) != 2 || got.Peaks[1] != r.Peaks[1] {
		t.Fatalf("round trip %+v != %+v", got, r)
	}

	r.Peaks = make([]PeakSummary, maxResultPeaks+1)
	if _, err := EncodeResult(r); err == nil {
		t.Error("oversized peak list accepted")
	}
	if _, err := DecodeResult(buf[:10]); err == nil {
		t.Error("truncated RESULT accepted")
	}
}

func TestResultRoutingTrailer(t *testing.T) {
	// A direct result stays byte-identical to the pre-cluster encoding...
	direct := &Result{Shard: 1, ProcessNs: 5}
	plain, err := EncodeResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	const fixed = 2 + 8*4 + 2
	if len(plain) != fixed {
		t.Fatalf("direct RESULT is %d bytes, want %d (no trailer)", len(plain), fixed)
	}
	got, err := DecodeResult(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != 0 || got.Attempts != 0 {
		t.Fatalf("direct RESULT decoded with routing fields %d/%d", got.Backend, got.Attempts)
	}

	// ...while a gateway-routed one round-trips the trailer, peaks intact.
	routed := &Result{
		Shard: 2, ProcessNs: 9, Backend: 3, Attempts: 2,
		Peaks: []PeakSummary{{Centroid: 1.5, Height: 10, Area: 20, SNR: 6}},
	}
	buf, err := EncodeResult(routed)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != fixed+32+resultTrailerSize {
		t.Fatalf("routed RESULT is %d bytes, want %d", len(buf), fixed+32+resultTrailerSize)
	}
	got, err = DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != 3 || got.Attempts != 2 || len(got.Peaks) != 1 || got.Peaks[0] != routed.Peaks[0] {
		t.Fatalf("routed round trip %+v != %+v", got, routed)
	}

	// A mangled length that is neither with- nor without-trailer fails.
	if _, err := DecodeResult(buf[:len(buf)-1]); err == nil {
		t.Error("RESULT with partial trailer accepted")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	buf := EncodeError(CodeResourceExhausted, "shard 2 queue full")
	code, msg, err := DecodeError(buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != CodeResourceExhausted || msg != "shard 2 queue full" {
		t.Fatalf("got %v %q", code, msg)
	}
	long := EncodeError(CodeInternal, string(make([]byte, 5000)))
	if _, m, err := DecodeError(long); err != nil || len(m) != maxErrorMessage {
		t.Fatalf("long message not truncated: %d bytes, err %v", len(m), err)
	}
	if _, _, err := DecodeError([]byte{1}); err == nil {
		t.Error("truncated ERROR accepted")
	}
}

func TestServerInfoAndOptsRoundTrip(t *testing.T) {
	si := ServerInfo{Version: 1, Shards: 8, Order: 9, MaxPayloadBytes: 16 << 20}
	got, err := DecodeServerInfo(EncodeServerInfo(si))
	if err != nil {
		t.Fatal(err)
	}
	if got != si {
		t.Fatalf("round trip %+v != %+v", got, si)
	}

	o := FrameOptions{Path: PathCPU, Deadline: 1500 * time.Millisecond}
	gotO, err := decodeFrameOpts(encodeFrameOpts(nil, o))
	if err != nil {
		t.Fatal(err)
	}
	if gotO != o {
		t.Fatalf("round trip %+v != %+v", gotO, o)
	}
}

func TestStringers(t *testing.T) {
	if MsgFrame.String() != "FRAME" || Code(99).String() != "code(99)" ||
		CodeResourceExhausted.String() != "RESOURCE_EXHAUSTED" ||
		PathHybrid.String() != "hybrid" || Path(9).String() != "path(9)" {
		t.Error("stringer mismatch")
	}
}

// FuzzIMSPDecode feeds arbitrary bytes to every IMSP decoder — the wire
// header, RESULT (with and without the routing trailer), ERROR, HELLO_OK
// and the FRAME options prefix.  None may panic, and a successful decode
// must re-encode to the same bytes wherever an encoder exists.
func FuzzIMSPDecode(f *testing.F) {
	f.Add(AppendHeader(nil, Header{Version: ProtocolV1, Type: MsgFrame, ReqID: 7, PayloadLen: 42}))
	f.Add(AppendHeader(nil, Header{Version: ProtocolV2, Type: MsgResult, ReqID: 9, PayloadLen: 36, TraceID: 0xABCD}))
	for _, r := range []*Result{
		{Shard: 1, ProcessNs: 5},
		{Shard: 2, Backend: 3, Attempts: 2, Flags: ResultFlagNotDurable,
			Peaks: []PeakSummary{{Centroid: 1.5, Height: 10, Area: 20, SNR: 6}}},
	} {
		b, err := EncodeResult(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(EncodeError(CodeDeadlineExceeded, "deadline expired"))
	f.Add(EncodeServerInfo(ServerInfo{Version: ProtocolVersion, Shards: 4, Order: 9, MaxPayloadBytes: 16 << 20}))
	f.Add(append(encodeFrameOpts(nil, FrameOptions{Path: PathCPU, Deadline: 250 * time.Millisecond}), "IMSF"...))

	f.Fuzz(func(t *testing.T, b []byte) {
		if h, err := ReadHeader(bytes.NewReader(b)); err == nil {
			if got := AppendHeader(nil, h); !bytes.Equal(got, b[:len(got)]) {
				t.Fatalf("header %+v re-encodes to %x, read from %x", h, got, b[:len(got)])
			}
		}
		if r, err := DecodeResult(b); err == nil {
			want := b
			if len(b) == 36+32*len(r.Peaks)+resultTrailerSize && r.Backend == 0 && r.Attempts == 0 && r.Flags == 0 {
				want = b[:len(b)-resultTrailerSize] // the encoder omits an all-zero trailer
			}
			got, err := EncodeResult(r)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("RESULT %+v re-encodes to %x (%v), want %x", r, got, err, want)
			}
		}
		if code, msg, err := DecodeError(b); err == nil && len(msg) <= maxErrorMessage {
			if got := EncodeError(code, msg); !bytes.Equal(got, b) {
				t.Fatalf("ERROR %v %q re-encodes to %x, want %x", code, msg, got, b)
			}
		}
		if si, err := DecodeServerInfo(b); err == nil {
			if got := EncodeServerInfo(si); !bytes.Equal(got, b) {
				t.Fatalf("HELLO_OK %+v re-encodes to %x, want %x", si, got, b)
			}
		}
		if opts, frame, err := SplitFramePayload(b); err == nil {
			if got := append(encodeFrameOpts(nil, opts), frame...); !bytes.Equal(got, b) {
				t.Fatalf("FRAME options %+v re-encode to %x, want %x", opts, got, b)
			}
		}
	})
}
