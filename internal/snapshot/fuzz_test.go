package snapshot

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzSeed builds a small valid snapshot covering every primitive, so
// the fuzzer starts from structurally interesting input.
func fuzzSeed() []byte {
	w := NewWriter()
	w.Section("meta")
	w.String("bump")
	w.U64(123456)
	w.Section("body")
	w.U8(7)
	w.U16(8)
	w.U32(9)
	w.I64(-10)
	w.F64(1.5)
	w.Bool(true)
	w.Bytes([]byte{1, 2, 3, 4})
	w.U32(2)
	w.U64(11)
	w.U64(12)
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes through the container layer's two
// sources and the primitive decoders: NewReader over a stream and Open
// in place must return the same error or the same body, and any input
// must either decode or error — never panic, and never allocate beyond
// the input's own size.
func FuzzReader(f *testing.F) {
	f.Add(fuzzSeed())
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		inPlace, errInPlace := Open(data)
		if fmt.Sprint(err) != fmt.Sprint(errInPlace) {
			t.Fatalf("NewReader error %v, Open error %v", err, errInPlace)
		}
		if err != nil {
			return // rejected at the container layer: fine
		}
		if !bytes.Equal(r.data, inPlace.data) {
			t.Fatalf("NewReader and Open disagree on the body")
		}
		// Drain the body through a representative mix of typed reads.
		r.Section("meta")
		_ = r.String()
		r.U64()
		r.Section("body")
		r.U8()
		r.U16()
		r.U32()
		r.I64()
		r.F64()
		r.Bool()
		r.Bytes()
		n := r.Len(8)
		for i := 0; i < n; i++ {
			r.U64()
		}
		var fx struct {
			A uint64
			B []int64
			C string
		}
		r.AnyInto(&fx)
		_ = r.Finish()
	})
}
