package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoder builds a length-prefixed binary stream with a sticky error,
// used by the model serialization that backs the Prediction module's
// "upload pre-trained models" step.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// U64 appends an unsigned 64-bit value.
func (e *Encoder) U64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// I64 appends a signed 64-bit value.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// F64s appends a length-prefixed float64 slice.
func (e *Encoder) F64s(v []float64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Ints appends a length-prefixed int slice.
func (e *Encoder) Ints(v []int) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.I64(int64(x))
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// ErrCodec reports a malformed stream.
var ErrCodec = errors.New("ml: malformed model stream")

// maxLen bounds any single length prefix a decoder will accept.
const maxLen = 1 << 31

// Decoder reads an Encoder stream with a sticky error: after the
// first failure every subsequent read returns zero values, and Err
// reports the failure.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a stream.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the sticky error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCodec, msg, d.off)
	}
}

// U64 reads an unsigned 64-bit value.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("short u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads a signed 64-bit value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// length reads a validated length prefix.
func (d *Decoder) length() int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > maxLen || d.off+int(n) > len(d.buf) && n > uint64(len(d.buf)) {
		d.fail("implausible length")
		return 0
	}
	return int(n)
}

// F64s reads a length-prefixed float64 slice.
func (d *Decoder) F64s() []float64 {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Ints reads a length-prefixed int slice.
func (d *Decoder) Ints() []int {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.I64())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.length()
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.buf) {
		d.fail("short string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Blob reads a length-prefixed byte slice.
func (d *Decoder) Blob() []byte {
	n := d.length()
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("short blob")
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}
