package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends fixed-width little-endian primitives to a growing
// buffer. It is the one encoding vocabulary shared by every wire
// payload (cell results, snapshot meta blobs, ladder info), so all
// record kinds agree on widths and byte order by construction.
type Writer struct {
	b []byte
}

// NewWriter returns a Writer over an optional pre-allocated buffer.
func NewWriter(buf []byte) *Writer { return &Writer{b: buf[:0]} }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.b }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.b = append(w.b, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a 32-bit little-endian value.
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 appends a 64-bit little-endian value.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// I64 appends a signed 64-bit value (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a signed 64-bit value.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by bit pattern (exact round trip).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(v []byte) {
	w.U32(uint32(len(v)))
	w.b = append(w.b, v...)
}

// String appends a length-prefixed string.
func (w *Writer) String(v string) {
	w.U32(uint32(len(v)))
	w.b = append(w.b, v...)
}

// U32s appends a length-prefixed []uint32.
func (w *Writer) U32s(v []uint32) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U32(x)
	}
}

// I64s appends a length-prefixed []int64.
func (w *Writer) I64s(v []int64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(x)
	}
}

// Bools appends a length-prefixed []bool, one byte per element.
func (w *Writer) Bools(v []bool) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.Bool(x)
	}
}

// Reader decodes a Writer-encoded buffer with a sticky error: the first
// short read or malformed value poisons the Reader, every later call
// returns a zero value, and Err reports the failure once at the end.
// All reads are bounds-checked and slice lengths are validated against
// the remaining bytes before allocation, so a Reader never panics or
// over-allocates on adversarial input — the property FuzzWireDecode
// exercises.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader never writes through
// buf and the slices it returns are always copies, so buf may reference
// read-only mapped memory.
func NewReader(buf []byte) *Reader { return &Reader{b: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done returns an error unless the buffer was consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b)-r.off)
	}
	return nil
}

// fail poisons the reader.
func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, r.off)
	}
}

// take returns the next n bytes, or nil after poisoning the reader.
func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.fail(what)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	v := r.take(1, "u8")
	if v == nil {
		return 0
	}
	return v[0]
}

// Bool reads a one-byte bool. Writer.Bool emits only 0 and 1, so any
// other byte is corruption; rejecting it keeps every accepted encoding
// canonical (decoding then re-encoding reproduces the input).
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 && r.err == nil {
		r.err = fmt.Errorf("%w: bool byte %#x at offset %d", ErrCorrupt, v, r.off-1)
	}
	return v == 1
}

// U32 reads a 32-bit little-endian value.
func (r *Reader) U32() uint32 {
	v := r.take(4, "u32")
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

// U64 reads a 64-bit little-endian value.
func (r *Reader) U64() uint64 {
	v := r.take(8, "u64")
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// sliceLen reads and validates a length prefix for elements of
// elemSize bytes: the declared payload must fit in the remaining
// buffer, which bounds any allocation by the input size.
func (r *Reader) sliceLen(elemSize int, what string) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining()/elemSize {
		r.fail(what)
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte slice, returning a copy (nil when
// the encoded length is zero, matching how captures of empty state
// encode nil slices).
func (r *Reader) Blob() []byte {
	n := r.sliceLen(1, "blob")
	if n == 0 {
		return nil
	}
	v := r.take(n, "blob")
	if v == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, v)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen(1, "string")
	v := r.take(n, "string")
	return string(v)
}

// U32s reads a length-prefixed []uint32 (nil when empty).
func (r *Reader) U32s() []uint32 {
	n := r.sliceLen(4, "[]uint32")
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.U32()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// I64s reads a length-prefixed []int64 (nil when empty).
func (r *Reader) I64s() []int64 {
	n := r.sliceLen(8, "[]int64")
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Bools reads a length-prefixed []bool (nil when empty).
func (r *Reader) Bools() []bool {
	n := r.sliceLen(1, "[]bool")
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	if r.err != nil {
		return nil
	}
	return out
}
