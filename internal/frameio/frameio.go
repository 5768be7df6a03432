// Package frameio is the storage substrate: a compact, self-describing
// binary container for accumulated IMS-TOF frames, following the design
// goals of the companion PNNL data-format work (Shah, Davidson et al.,
// J. Am. Soc. Mass Spectrom. 2010): smaller than text encodings, cheap to
// scan, and extensible through a typed metadata header.
//
// Layout (little endian):
//
//	magic "HTIMSFR1" | header length u32 | header bytes |
//	drift bins u32 | tof bins u32 | encoding u8 |
//	payload ...
//
// Two payload encodings are provided: Raw (IEEE-754 float64 per cell) and
// Delta (zig-zag varint of the integer delta between consecutive cells) —
// accumulated ADC counts are integers with strong column correlation, which
// delta-varint coding exploits for a typical 4-8× size reduction.
package frameio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/instrument"
)

// Encoding selects the payload representation.
type Encoding uint8

const (
	// Raw stores each cell as a float64.
	Raw Encoding = 0
	// Delta stores zig-zag varints of cell-to-cell integer differences.
	// Cells must hold integral values (accumulated counts); Write returns
	// an error otherwise.
	Delta Encoding = 1
)

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case Raw:
		return "raw"
	case Delta:
		return "delta"
	}
	return fmt.Sprintf("encoding(%d)", uint8(e))
}

var magic = [8]byte{'H', 'T', 'I', 'M', 'S', 'F', 'R', '1'}

// Metadata is the typed key/value header accompanying a frame.
type Metadata map[string]string

// Write serializes the frame.
func Write(w io.Writer, f *instrument.Frame, meta Metadata, enc Encoding) error {
	if f == nil {
		return fmt.Errorf("frameio: nil frame")
	}
	if enc != Raw && enc != Delta {
		return fmt.Errorf("frameio: unknown encoding %v", enc)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	header, err := encodeMeta(meta)
	if err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(header))); err != nil {
		return err
	}
	if _, err := bw.Write(header); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(f.DriftBins)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(f.TOFBins)); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(enc)); err != nil {
		return err
	}
	switch enc {
	case Raw:
		for _, v := range f.Data {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	case Delta:
		var prev int64
		buf := make([]byte, binary.MaxVarintLen64)
		for i, v := range f.Data {
			iv := int64(v)
			if float64(iv) != v {
				return fmt.Errorf("frameio: cell %d holds non-integral value %g (delta encoding needs counts)", i, v)
			}
			n := binary.PutVarint(buf, iv-prev)
			if _, err := bw.Write(buf[:n]); err != nil {
				return err
			}
			prev = iv
		}
	}
	return bw.Flush()
}

// Limits bounds what a frame header may declare before the frame is
// obtained.  Read enforces DefaultLimits; network servers should pass much
// tighter bounds to Decode so a malicious or corrupt peer cannot force a
// huge allocation with a 17-byte header.
type Limits struct {
	// MaxHeaderBytes caps the metadata header length.
	MaxHeaderBytes uint32
	// MaxDriftBins and MaxTOFBins cap each frame axis.
	MaxDriftBins uint32
	MaxTOFBins   uint32
	// MaxCells caps DriftBins × TOFBins (the payload allocation, 8 bytes
	// per cell once decoded).
	MaxCells uint64
}

// DefaultLimits returns the historical bounds of Read: 1 MiB of metadata
// and 2³⁰ cells (8 GiB decoded) with no per-axis cap beyond the cell cap.
func DefaultLimits() Limits {
	return Limits{
		MaxHeaderBytes: 1 << 20,
		MaxDriftBins:   1 << 30,
		MaxTOFBins:     1 << 30,
		MaxCells:       1 << 30,
	}
}

// Validate reports the first unusable bound.
func (l Limits) Validate() error {
	if l.MaxHeaderBytes == 0 || l.MaxDriftBins == 0 || l.MaxTOFBins == 0 || l.MaxCells == 0 {
		return fmt.Errorf("frameio: limits must all be positive (%+v)", l)
	}
	return nil
}

// Read deserializes a frame written by Write, under DefaultLimits.
func Read(r io.Reader) (*instrument.Frame, Metadata, error) {
	return ReadLimited(r, DefaultLimits())
}

// ReadLimited reads r to EOF and decodes the one frame it holds with
// Decode under lim into a fresh frame.  The read is bounded by the longest
// encoding lim admits, so input can cost at most that much memory, and
// Decode rejects a header declaring dimensions beyond lim before the
// frame is allocated.
func ReadLimited(r io.Reader, lim Limits) (*instrument.Frame, Metadata, error) {
	if err := lim.Validate(); err != nil {
		return nil, nil, err
	}
	bound := lim.maxEncodedBytes()
	b, err := io.ReadAll(io.LimitReader(r, bound+1))
	if err != nil {
		return nil, nil, err
	}
	if int64(len(b)) > bound {
		return nil, nil, fmt.Errorf("frameio: input exceeds the %d-byte bound of its limits", bound)
	}
	return Decode(b, lim, nil)
}

// maxEncodedBytes is the longest encoding l admits: the fixed fields, the
// largest header, and MaxCells cells of the widest cell encoding (a
// 10-byte varint).  It saturates at math.MaxInt64-1, so one more byte
// still fits an int64.
func (l Limits) maxEncodedBytes() int64 {
	const fixed = 8 + 4 + 4 + 4 + 1 // magic, header length, geometry, encoding
	rest := uint64(math.MaxInt64-1) - fixed - uint64(l.MaxHeaderBytes)
	if l.MaxCells > rest/binary.MaxVarintLen64 {
		return math.MaxInt64 - 1
	}
	return int64(fixed) + int64(l.MaxHeaderBytes) + int64(l.MaxCells)*binary.MaxVarintLen64
}

// Decode deserializes the frame written by Write at the start of b,
// rejecting any header that declares dimensions or sizes beyond lim before
// the frame is obtained.  The frame comes from get (instrument.NewFrame
// when get is nil) and every cell is overwritten, so get may hand out a
// recycled frame; on an error the frame, if one was obtained, is dropped.
// Bytes after the last cell are ignored.  Decode does not retain b.  On
// success it allocates nothing beyond what get does and a non-empty
// Metadata (nil when the header holds no keys).
func Decode(b []byte, lim Limits, get func(driftBins, tofBins int) *instrument.Frame) (*instrument.Frame, Metadata, error) {
	if err := lim.Validate(); err != nil {
		return nil, nil, err
	}
	if len(b) < len(magic)+4 {
		return nil, nil, fmt.Errorf("frameio: reading magic and header length: %w", io.ErrUnexpectedEOF)
	}
	if [8]byte(b[:8]) != magic {
		return nil, nil, fmt.Errorf("frameio: bad magic %q", b[:8])
	}
	headerLen := binary.LittleEndian.Uint32(b[8:])
	if headerLen > lim.MaxHeaderBytes {
		return nil, nil, fmt.Errorf("frameio: header of %d bytes exceeds %d-byte bound", headerLen, lim.MaxHeaderBytes)
	}
	b = b[12:]
	if uint64(len(b)) < uint64(headerLen) {
		return nil, nil, fmt.Errorf("frameio: reading %d-byte header: %w", headerLen, io.ErrUnexpectedEOF)
	}
	meta, err := decodeMeta(b[:headerLen])
	if err != nil {
		return nil, nil, err
	}
	b = b[headerLen:]
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("frameio: reading geometry: %w", io.ErrUnexpectedEOF)
	}
	driftBins := binary.LittleEndian.Uint32(b)
	tofBins := binary.LittleEndian.Uint32(b[4:])
	cells := uint64(driftBins) * uint64(tofBins)
	if driftBins == 0 || tofBins == 0 || cells > lim.MaxCells {
		return nil, nil, fmt.Errorf("frameio: implausible geometry %d x %d (cell bound %d)", driftBins, tofBins, lim.MaxCells)
	}
	if driftBins > lim.MaxDriftBins || tofBins > lim.MaxTOFBins {
		return nil, nil, fmt.Errorf("frameio: geometry %d x %d exceeds axis bounds %d x %d",
			driftBins, tofBins, lim.MaxDriftBins, lim.MaxTOFBins)
	}
	if len(b) < 9 {
		return nil, nil, fmt.Errorf("frameio: reading encoding: %w", io.ErrUnexpectedEOF)
	}
	enc, p := Encoding(b[8]), b[9:]
	// Every cell takes at least one payload byte (eight when Raw), so a
	// header declaring more cells than the payload can hold fails here,
	// before the frame is obtained.
	switch enc {
	case Raw:
		if uint64(len(p))/8 < cells {
			return nil, nil, fmt.Errorf("frameio: cell %d: %w", len(p)/8, io.ErrUnexpectedEOF)
		}
	case Delta:
		if uint64(len(p)) < cells {
			return nil, nil, fmt.Errorf("frameio: %d-byte delta payload cannot hold %d cells: %w",
				len(p), cells, io.ErrUnexpectedEOF)
		}
	default:
		return nil, nil, fmt.Errorf("frameio: unknown encoding %d", uint8(enc))
	}
	if get == nil {
		get = instrument.NewFrame
	}
	f := get(int(driftBins), int(tofBins))
	if enc == Raw {
		for i := range f.Data {
			f.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		return f, meta, nil
	}
	if err := decodeDelta(f.Data, p); err != nil {
		return nil, nil, err
	}
	return f, meta, nil
}

// decodeDelta fills dst from zig-zag varint deltas in p.  One-byte varints
// (deltas in [-64, 63], the common case for accumulated counts) take an
// inline path; longer ones go through binary.Uvarint.
func decodeDelta(dst []float64, p []byte) error {
	var prev int64
	pos := 0
	for i := range dst {
		var ux uint64
		if pos < len(p) && p[pos] < 0x80 {
			ux = uint64(p[pos])
			pos++
		} else {
			v, n := binary.Uvarint(p[pos:])
			if n == 0 {
				return fmt.Errorf("frameio: cell %d: %w", i, io.ErrUnexpectedEOF)
			}
			if n < 0 {
				return fmt.Errorf("frameio: cell %d: varint overflows a 64-bit integer", i)
			}
			ux = v
			pos += n
		}
		prev += int64(ux>>1) ^ -int64(ux&1)
		dst[i] = float64(prev)
	}
	return nil
}

// encodeMeta serializes metadata deterministically (sorted keys) as
// length-prefixed strings.
func encodeMeta(meta Metadata) ([]byte, error) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		if len(k) == 0 {
			return nil, fmt.Errorf("frameio: empty metadata key")
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	buf := make([]byte, binary.MaxVarintLen64)
	appendStr := func(s string) {
		n := binary.PutUvarint(buf, uint64(len(s)))
		out = append(out, buf[:n]...)
		out = append(out, s...)
	}
	n := binary.PutUvarint(buf, uint64(len(keys)))
	out = append(out, buf[:n]...)
	for _, k := range keys {
		appendStr(k)
		appendStr(meta[k])
	}
	return out, nil
}

// decodeMeta parses an encodeMeta header; a header with no keys decodes
// to nil, so an empty header costs no allocation.
func decodeMeta(b []byte) (Metadata, error) {
	var meta Metadata
	pos := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("frameio: truncated metadata")
		}
		pos += n
		return v, nil
	}
	readStr := func() (string, error) {
		l, err := readUvarint()
		if err != nil {
			return "", err
		}
		if l > uint64(len(b)-pos) {
			return "", fmt.Errorf("frameio: truncated metadata string")
		}
		s := string(b[pos : pos+int(l)])
		pos += int(l)
		return s, nil
	}
	count, err := readUvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		if k == "" {
			// Write never emits one, so an accepted frame always re-encodes.
			return nil, fmt.Errorf("frameio: empty metadata key")
		}
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		if meta == nil {
			meta = Metadata{}
		}
		meta[k] = v
	}
	return meta, nil
}

// EncodedSize returns the payload byte count a frame would occupy under the
// encoding, without writing (for format comparisons).
func EncodedSize(f *instrument.Frame, enc Encoding) (int64, error) {
	if f == nil {
		return 0, fmt.Errorf("frameio: nil frame")
	}
	switch enc {
	case Raw:
		return int64(len(f.Data)) * 8, nil
	case Delta:
		var total int64
		var prev int64
		buf := make([]byte, binary.MaxVarintLen64)
		for i, v := range f.Data {
			iv := int64(v)
			if float64(iv) != v {
				return 0, fmt.Errorf("frameio: cell %d holds non-integral value %g", i, v)
			}
			total += int64(binary.PutVarint(buf, iv-prev))
			prev = iv
		}
		return total, nil
	}
	return 0, fmt.Errorf("frameio: unknown encoding %v", enc)
}

// CSVSize estimates the size of the same frame as a naive CSV text export
// (the comparison baseline of the companion data-format paper).
func CSVSize(f *instrument.Frame) int64 {
	if f == nil {
		return 0
	}
	var total int64
	for _, v := range f.Data {
		total += int64(len(fmt.Sprintf("%g,", v)))
	}
	total += int64(f.DriftBins) // newlines
	return total
}
