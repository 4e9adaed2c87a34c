// Package snapshot implements the simulator's versioned, deterministic
// binary checkpoint format.
//
// A snapshot is a framed byte stream:
//
//	magic (8B) | format version (u16) | CRC32-IEEE of body (u32) |
//	body length (u64) | body
//
// The body is a flat little-endian sequence of primitive values written
// by the component serializers. sim.System orchestrates the order and
// opens the body with its "meta" section — the structural digest, the
// cut cycle and the measured-parameter trajectory — which a restore
// checks before decoding any state. The encoding is *canonical*:
// serializing the same semantic simulator state always produces the
// same bytes — maps are emitted in sorted key order, pooled free slots
// are reduced to their live links, and transient scratch state is
// skipped — which is what lets the golden-state regression corpus
// compare checkpoints byte-for-byte.
//
// Decoding is defensive by construction: every length field is validated
// against the bytes actually present before any allocation, the body is
// read incrementally from a stream (a corrupt length prefix cannot force
// a large allocation) or decoded in place from memory (Open), booleans
// must be 0 or 1, and the CRC is verified before the reader hands out a
// single value. Corrupt or truncated input yields an error, never a
// panic or an out-of-memory allocation — the fuzz harnesses in this
// package and in internal/sim enforce that.
//
// Format versioning policy: FormatVersion is bumped whenever the byte
// layout of any serialized component changes (fields added, removed,
// reordered, or re-encoded). Readers reject snapshots from any other
// version — checkpoints are cheap to regenerate, so there is no
// cross-version migration path.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// FormatVersion identifies the snapshot byte layout. Bump it on any
	// change to the serialized state of any component.
	// v2: the container gained the node-metadata block (checkpoint-tree
	// forking) — header grew the meta length/CRC fields.
	// v3: cache lines no longer carry the filling PC and core, so a
	// resident line encodes as flags, block and LRU stamp.
	// v4: a simulator snapshot carries the region-density profiler's
	// section only when the run is profiled (sim.Config.Profile).
	// v5: the node-metadata block and the header's meta length and CRC
	// fields are gone; the trajectory prefix is the last field of the
	// body's meta section.
	// v6: a distribution (stats.Dist) encodes as one count per value
	// instead of its samples, so a checkpoint's latency section no
	// longer grows with the measured window.
	// v7: the caches, the BuMP predictor's tables and the SMS pattern
	// history table write one LRU recency word per set in place of their
	// clock tick, and their entries no longer carry an LRU stamp.
	FormatVersion = 7

	magic     = "BUMPSNP\x00"
	headerLen = len(magic) + 2 + 4 + 8
)

// formatErrf builds a decode error: a container failure (bad magic,
// version mismatch, truncation, CRC) or a malformed body.
func formatErrf(format string, args ...any) error {
	return fmt.Errorf("snapshot: "+format, args...)
}

// ---- Writer -----------------------------------------------------------

// Writer accumulates a snapshot body in memory; Flush frames it with the
// header and writes the whole snapshot out. Writer methods never fail
// (the body is an in-memory buffer); errors surface at Flush.
type Writer struct{ buf bytes.Buffer }

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer { return &Writer{} }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf.WriteByte(v) }

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.buf.Write(b[:])
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

// I64 writes an int64 as its two's-complement uint64 image.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 as its IEEE-754 bit image.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a boolean as one canonical byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes writes a u32 length prefix followed by the raw bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf.Write(b)
}

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf.WriteString(s)
}

// Section writes a named section marker. Readers verify markers in
// order, so a mis-sequenced decode fails with a descriptive error
// instead of silently misinterpreting bytes.
func (w *Writer) Section(name string) {
	w.U8(0x5E)
	w.String(name)
}

// Body returns the accumulated body bytes without the container header.
// The slice aliases the writer's buffer: it is valid until the next
// write and must not be mutated. Transports that carry their own
// framing (internal/wire) embed bodies directly instead of paying for
// the full container of Flush.
func (w *Writer) Body() []byte { return w.buf.Bytes() }

// Flush frames the accumulated body and writes the full snapshot to out.
func (w *Writer) Flush(out io.Writer) error {
	body := w.buf.Bytes()
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint16(hdr[8:], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[10:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(hdr[14:], uint64(len(body)))
	if _, err := out.Write(hdr[:]); err != nil {
		return err
	}
	_, err := out.Write(body)
	return err
}

// ---- Reader -----------------------------------------------------------

// Reader decodes a snapshot body. Errors are sticky: after the first
// failure every read returns a zero value, so component decoders can run
// straight-line and check Err (or Finish) once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader reads one snapshot from r: it checks the header, reads the
// body incrementally, then checks the body's length and CRC, returning a
// reader positioned at the body's start.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, formatErrf("short header: %v", err)
	}
	return decode(hdr[:], func(bodyLen uint64) ([]byte, error) {
		// A lying length prefix cannot force a large allocation: the
		// buffer only grows as real bytes arrive (pre-growing is capped
		// at 1MB).
		var buf bytes.Buffer
		if bodyLen < 1<<20 {
			buf.Grow(int(bodyLen))
		}
		_, err := io.Copy(&buf, io.LimitReader(r, int64(bodyLen)))
		return buf.Bytes(), err
	})
}

// Open is NewReader over a snapshot held in memory: it runs the same
// checks on the snapshot at the start of data, then returns a reader
// over the body in place, without copying it. The reader aliases data,
// which must stay unmodified while it is read; nothing the reader
// returns aliases it (Bytes, String and AnyInto copy), so many readers
// may share one read-only slice.
func Open(data []byte) (*Reader, error) {
	if len(data) < headerLen {
		err := io.ErrUnexpectedEOF
		if len(data) == 0 {
			err = io.EOF
		}
		return nil, formatErrf("short header: %v", err)
	}
	return decode(data[:headerLen], func(bodyLen uint64) ([]byte, error) {
		body := data[headerLen:]
		if uint64(len(body)) > bodyLen {
			body = body[:bodyLen]
		}
		return body, nil
	})
}

// decode is the one container decoder behind NewReader and Open: it
// checks the header's magic and version, takes the body the header
// announces from its source, and checks the body's length and CRC.
func decode(hdr []byte, body func(bodyLen uint64) ([]byte, error)) (*Reader, error) {
	if string(hdr[:len(magic)]) != magic {
		return nil, formatErrf("bad magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != FormatVersion {
		return nil, formatErrf("format version %d, this build reads %d", v, FormatVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[10:])
	bodyLen := binary.LittleEndian.Uint64(hdr[14:])
	if bodyLen > math.MaxInt64 {
		return nil, formatErrf("body length %d out of range", bodyLen)
	}
	data, err := body(bodyLen)
	if err != nil {
		return nil, formatErrf("body read: %v", err)
	}
	if uint64(len(data)) != bodyLen {
		return nil, formatErrf("truncated body: %d of %d bytes", len(data), bodyLen)
	}
	if got := crc32.ChecksumIEEE(data); got != wantCRC {
		return nil, formatErrf("body CRC mismatch: %08x != %08x", got, wantCRC)
	}
	return &Reader{data: data}, nil
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Failf records a formatted decode error (the first one wins).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = formatErrf(format, args...)
	}
}

// Remaining returns the unread body byte count.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.Failf("truncated: need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a canonical boolean; any byte other than 0 or 1 is an
// error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("non-canonical boolean")
		return false
	}
}

// Len reads a u32 element count for a sequence whose elements occupy at
// least elemMin encoded bytes each, rejecting counts that could not
// possibly fit in the remaining body. This is the OOM guard: decoders
// size allocations from Len, never from a raw U32.
func (r *Reader) Len(elemMin int) int {
	if elemMin <= 0 {
		elemMin = 1
	}
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemMin) > uint64(r.Remaining()) {
		r.Failf("sequence length %d exceeds remaining %d bytes", n, r.Remaining())
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	b := r.take(n)
	return string(b)
}

// Section verifies the next section marker names `name`.
func (r *Reader) Section(name string) {
	if m := r.U8(); r.err == nil && m != 0x5E {
		r.Failf("section %q: bad marker byte %#x", name, m)
		return
	}
	got := r.String()
	if r.err == nil && got != name {
		r.Failf("section order: have %q, want %q", got, name)
	}
}

// NewBodyReader returns a reader over bare body bytes produced by
// Writer.Body — no container header, no CRC. The caller's transport is
// responsible for integrity (internal/wire frames carry their own CRC).
// The reader aliases data; the slice must stay immutable while read.
func NewBodyReader(data []byte) *Reader { return &Reader{data: data} }

// Finish returns the sticky error, or an error if unread body bytes
// remain (a layout mismatch that happened to stay in bounds).
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return formatErrf("%d trailing bytes after final section", r.Remaining())
	}
	return nil
}
