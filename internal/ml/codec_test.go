package ml

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U64(42)
	e.I64(-7)
	e.F64(3.14159)
	e.F64s([]float64{1, 2, 3})
	e.Ints([]int{-1, 0, 1})
	e.Str("hello")
	e.Blob([]byte{0xDE, 0xAD})

	d := NewDecoder(e.Bytes())
	if d.U64() != 42 || d.I64() != -7 || d.F64() != 3.14159 {
		t.Fatal("scalar round trip failed")
	}
	fs := d.F64s()
	if len(fs) != 3 || fs[2] != 3 {
		t.Fatalf("F64s = %v", fs)
	}
	is := d.Ints()
	if len(is) != 3 || is[0] != -1 {
		t.Fatalf("Ints = %v", is)
	}
	if d.Str() != "hello" {
		t.Fatal("Str round trip failed")
	}
	if !bytes.Equal(d.Blob(), []byte{0xDE, 0xAD}) {
		t.Fatal("Blob round trip failed")
	}
	if !(d.err == nil && d.off == len(d.buf)) {
		t.Errorf("stream not fully consumed: err=%v", d.Err())
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	e := NewEncoder()
	e.F64(math.Inf(1))
	e.F64(math.NaN())
	e.F64(math.Copysign(0, -1)) // -0.0 (the literal -0.0 is untyped +0)
	d := NewDecoder(e.Bytes())
	if !math.IsInf(d.F64(), 1) {
		t.Error("+Inf lost")
	}
	if !math.IsNaN(d.F64()) {
		t.Error("NaN lost")
	}
	if v := d.F64(); math.Signbit(v) == false || v != 0 {
		t.Error("-0 lost")
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3}) // too short for any u64
	if d.U64() != 0 {
		t.Error("short read returned nonzero")
	}
	if d.Err() == nil {
		t.Fatal("no error after short read")
	}
	// Every later read stays zero without panicking.
	if d.F64() != 0 || d.Str() != "" || d.F64s() != nil || d.Blob() != nil {
		t.Error("sticky error not honored")
	}
	if d.err == nil && d.off == len(d.buf) {
		t.Error("Done with sticky error")
	}
}

func TestDecoderImplausibleLength(t *testing.T) {
	e := NewEncoder()
	e.U64(1 << 40) // giant length prefix with no payload
	d := NewDecoder(e.Bytes())
	if d.F64s() != nil || d.Err() == nil {
		t.Error("implausible length accepted")
	}
}

func TestDecoderTruncatedString(t *testing.T) {
	e := NewEncoder()
	e.Str("hello world")
	buf := e.Bytes()[:12] // length says 11 but only 4 payload bytes remain
	d := NewDecoder(buf)
	if d.Str() != "" || d.Err() == nil {
		t.Error("truncated string accepted")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(u uint64, fs []float64, s string) bool {
		e := NewEncoder()
		e.U64(u)
		e.F64s(fs)
		e.Str(s)
		d := NewDecoder(e.Bytes())
		if d.U64() != u {
			return false
		}
		got := d.F64s()
		if len(got) != len(fs) {
			return false
		}
		for i := range fs {
			// NaN compares unequal; compare bit patterns.
			if math.Float64bits(got[i]) != math.Float64bits(fs[i]) {
				return false
			}
		}
		return d.Str() == s && (d.err == nil && d.off == len(d.buf))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
