package snapshot

import (
	"bytes"
	"crypto/sha256"
	"math"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, w *Writer) *Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPrimitiveRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Section("prims")
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(math.MaxUint64)
	w.I64(-42)
	w.F64(3.14159)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")

	r := roundTrip(t, w)
	r.Section("prims")
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	build := func() []byte {
		w := NewWriter()
		w.Section("a")
		w.U64(7)
		w.String("x")
		var buf bytes.Buffer
		if err := w.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical writes produced different bytes")
	}
}

func TestCorruptionDetected(t *testing.T) {
	w := NewWriter()
	w.Section("s")
	for i := 0; i < 64; i++ {
		w.U64(uint64(i))
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip every byte in turn: each corruption must be rejected by the
	// header checks or the CRC, from a stream and in place alike.
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xFF
		if _, err := NewReader(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
		if _, err := Open(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted in place", i)
		}
	}
	// Every truncation must be rejected too.
	for n := 0; n < len(good); n++ {
		if _, err := NewReader(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if _, err := Open(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted in place", n)
		}
	}
}

// TestOpenDecodesInPlace: Open reads the body where it lies, yet nothing
// a reader returns aliases the caller's bytes.
func TestOpenDecodesInPlace(t *testing.T) {
	w := NewWriter()
	w.Section("s")
	w.Bytes([]byte{1, 2, 3})
	w.String("x")
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want := append([]byte(nil), data...)
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if &r.data[0] != &data[headerLen] {
		t.Fatal("Open copied the body")
	}
	r.Section("s")
	got := r.Bytes()
	if s := r.String(); s != "x" {
		t.Fatalf("String = %q", s)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	got[0] = 9
	if !bytes.Equal(data, want) {
		t.Fatal("Bytes aliases the snapshot")
	}
}

func TestSectionOrderEnforced(t *testing.T) {
	w := NewWriter()
	w.Section("first")
	w.Section("second")
	r := roundTrip(t, w)
	r.Section("first")
	r.Section("wrong")
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), "section order") {
		t.Fatalf("section mismatch not detected: %v", err)
	}
}

func TestLenGuardsAllocation(t *testing.T) {
	// A sequence length far beyond the remaining bytes must fail before
	// any allocation is attempted.
	w := NewWriter()
	w.U32(1 << 30) // claimed length
	w.U64(0)       // only 8 real bytes
	r := roundTrip(t, w)
	if n := r.Len(8); n != 0 || r.Err() == nil {
		t.Fatalf("Len accepted impossible count: n=%d err=%v", n, r.Err())
	}
}

func TestNonCanonicalBoolRejected(t *testing.T) {
	w := NewWriter()
	w.U8(2)
	r := roundTrip(t, w)
	r.Bool()
	if r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.U64(1)
	w.U64(2)
	r := roundTrip(t, w)
	r.U64()
	if err := r.Finish(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

type anyFixture struct {
	A uint64
	B int32
	C float64
	D bool
	E string
	F [3]uint64
	G []int64
	H struct {
		X uint32
		Y uint64
	}
}

func TestAnyRoundTrip(t *testing.T) {
	in := anyFixture{A: 1, B: -2, C: 0.5, D: true, E: "s", F: [3]uint64{4, 5, 6}, G: []int64{-7, 8}}
	in.H.X, in.H.Y = 9, 10
	w := NewWriter()
	w.Any(in)
	r := roundTrip(t, w)
	var out anyFixture
	r.AnyInto(&out)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if out.A != in.A || out.B != in.B || out.C != in.C || out.D != in.D ||
		out.E != in.E || out.F != in.F || len(out.G) != 2 || out.G[0] != -7 ||
		out.H != in.H {
		t.Fatalf("Any round trip mismatch: %+v != %+v", out, in)
	}
}

func TestCanonicalDigest(t *testing.T) {
	type cfg struct {
		N    int
		Name string
	}
	a, err := CanonicalDigest("v1", cfg{N: 1, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalDigest("v1", cfg{N: 1, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal values digest differently")
	}
	c, err := CanonicalDigest("v1", cfg{N: 2, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different values digest equal")
	}
	d, err := CanonicalDigest("v2", cfg{N: 1, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Fatal("prefix does not separate digest spaces")
	}
	// Code has no canonical value: a func field is rejected, nil or not.
	type hooked struct {
		N    int
		Hook func()
	}
	for _, h := range []hooked{{}, {Hook: func() {}}} {
		if _, err := CanonicalDigest("v1", h); err == nil {
			t.Fatalf("func field accepted (nil: %v)", h.Hook == nil)
		}
	}
	if _, err := CanonicalDigest("v1", map[string]int{}); err == nil {
		t.Fatal("map accepted")
	}
}

// canonMode is a named scalar with a String method: the encoding prints
// its name, as fmt's %v does, not its ordinal.
type canonMode int

func (m canonMode) String() string { return [...]string{"off", "on"}[m] }

// TestCanonicalEncoding pins the byte layout every config hash, warm
// key, fork-node key and checkpoint digest is computed over.
func TestCanonicalEncoding(t *testing.T) {
	type inner struct {
		On   bool
		Rate float32
	}
	type cfg struct {
		N     int
		Name  string
		Mode  canonMode
		Ratio float64
		Big   float64
		Inf   float64
		Bytes []uint8
		Pair  [2]int64
		In    inner
	}
	v := cfg{N: -3, Name: "x", Mode: 1, Ratio: 0.1, Big: 1e21, Inf: math.Inf(1),
		Bytes: []uint8{7}, Pair: [2]int64{1, 2}, In: inner{On: true, Rate: 0.3}}
	const lines = "{root}.N=-3\n{root}.Name=x\n{root}.Mode=on\n{root}.Ratio=0.1\n" +
		"{root}.Big=1e+21\n{root}.Inf=+Inf\n{root}.Bytes.len=1\n{root}.Bytes[0]=7\n" +
		"{root}.Pair.len=2\n{root}.Pair[0]=1\n{root}.Pair[1]=2\n" +
		"{root}.In.On=true\n{root}.In.Rate=0.3\n"
	for _, root := range []string{"v", "cfg"} {
		got, err := CanonicalDigestAt("p1", root, v)
		if err != nil {
			t.Fatal(err)
		}
		want := sha256.Sum256([]byte("p1" + strings.ReplaceAll(lines, "{root}", root)))
		if got != want {
			t.Errorf("root %q: digest does not match the documented encoding", root)
		}
	}
	d, err := CanonicalDigest("p1", v)
	if err != nil {
		t.Fatal(err)
	}
	if at, _ := CanonicalDigestAt("p1", "v", v); d != at {
		t.Error(`CanonicalDigest must root its paths at "v"`)
	}
}
