package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"bump/internal/snapshot"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRatioAndPct(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator must be 0")
	}
	if !almostEq(Ratio(1, 4), 0.25) {
		t.Error("Ratio(1,4)")
	}
	if !almostEq(Pct(1, 4), 25) {
		t.Error("Pct(1,4)")
	}
}

func TestImprovementAndSpeedup(t *testing.T) {
	if !almostEq(Improvement(100, 77), 0.23) {
		t.Errorf("Improvement = %v", Improvement(100, 77))
	}
	if Improvement(0, 5) != 0 {
		t.Error("Improvement base 0")
	}
	if !almostEq(Speedup(100, 111), 0.11) {
		t.Errorf("Speedup = %v", Speedup(100, 111))
	}
	if Speedup(0, 5) != 0 {
		t.Error("Speedup base 0")
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil)")
	}
	if !almostEq(GeoMean([]float64{2, 8}), 4) {
		t.Errorf("GeoMean = %v", GeoMean([]float64{2, 8}))
	}
	// Non-positive values are skipped, not poison.
	if !almostEq(GeoMean([]float64{0, 4}), 4) {
		t.Error("GeoMean skips zeros")
	}
}

func TestDist(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Percentile(50) != 0 {
		t.Error("empty Dist must report zeros")
	}
	for _, v := range []uint64{5, 1, 3, 2, 4} {
		d.Add(v)
	}
	if d.N() != 5 {
		t.Errorf("N = %d", d.N())
	}
	if !almostEq(d.Mean(), 3) {
		t.Errorf("Mean = %v", d.Mean())
	}
	if got := d.Percentile(50); got != 3 {
		t.Errorf("P50 = %v", got)
	}
	if got := d.Percentile(100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := d.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
}

// Property: for any sample set, P0 <= mean <= P100 and P0 <= P50 <= P100,
// with P0 and P100 the smallest and largest samples.
func TestDistInvariantsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var d Dist
		lo, hi := float64(raw[0]), float64(raw[0])
		for _, r := range raw {
			d.Add(uint64(r))
			lo, hi = math.Min(lo, float64(r)), math.Max(hi, float64(r))
		}
		p0, p50, p100 := d.Percentile(0), d.Percentile(50), d.Percentile(100)
		if d.Mean() < p0 || d.Mean() > p100 {
			return false
		}
		return p0 <= p50 && p50 <= p100 && p0 == lo && p100 == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// reservoirDist is the reference Dist: every sample kept as a float64,
// a float64 running sum, and a sorted copy per percentile query.
type reservoirDist struct {
	vals []float64
	sum  float64
}

func (d *reservoirDist) Add(x float64) {
	d.vals = append(d.vals, x)
	d.sum += x
}

func (d *reservoirDist) Mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	return d.sum / float64(len(d.vals))
}

func (d *reservoirDist) Percentile(p float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	s := append([]float64(nil), d.vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// TestDistMatchesReservoir feeds the counting Dist and the reference
// reservoir the same integer samples (duplicates, zeros and a few very
// large values among them): N, the mean's bits and every percentile
// must agree exactly, and so must a Dist restored from a checkpoint.
func TestDistMatchesReservoir(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		var d Dist
		var ref reservoirDist
		n := rng.Intn(3000)
		if trial < 3 {
			n = trial
		}
		for i := 0; i < n; i++ {
			var x uint64
			switch k := rng.Intn(100); {
			case k < 5:
				x = 0
			case k < 7:
				x = uint64(50_000 + rng.Intn(150_000))
			default:
				x = uint64(rng.Intn(400))
			}
			d.Add(x)
			ref.Add(float64(x))
		}
		restored := roundTrip(t, &d)
		ps := []float64{0, 1, 50, 95, 99, 100}
		for i := 0; i < 20; i++ {
			ps = append(ps, rng.Float64()*100)
		}
		for _, got := range []*Dist{&d, restored} {
			if got.N() != len(ref.vals) {
				t.Fatalf("trial %d: N = %d, want %d", trial, got.N(), len(ref.vals))
			}
			if math.Float64bits(got.Mean()) != math.Float64bits(ref.Mean()) {
				t.Fatalf("trial %d: mean %v, want %v", trial, got.Mean(), ref.Mean())
			}
			for _, p := range ps {
				if g, w := got.Percentile(p), ref.Percentile(p); g != w {
					t.Fatalf("trial %d: P%v = %v, want %v", trial, p, g, w)
				}
			}
		}
	}
}

func roundTrip(t *testing.T, d *Dist) *Dist {
	t.Helper()
	w := snapshot.NewWriter()
	d.SnapshotTo(w)
	var out Dist
	r := snapshot.NewBodyReader(w.Body())
	if err := out.RestoreFrom(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestDistRestoreRejectsMalformed: a count array longer than its bytes,
// or one ending in a zero count (no sample at the largest value), is
// refused.
func TestDistRestoreRejectsMalformed(t *testing.T) {
	for name, build := range map[string]func(*snapshot.Writer){
		"lying length": func(w *snapshot.Writer) { w.U32(1 << 30); w.U64(1) },
		"trailing zero": func(w *snapshot.Writer) {
			w.U32(2)
			w.U64(1)
			w.U64(0)
		},
	} {
		w := snapshot.NewWriter()
		w.Section("dist")
		build(w)
		var d Dist
		if err := d.RestoreFrom(snapshot.NewBodyReader(w.Body())); err == nil {
			t.Errorf("%s: restore accepted a malformed count array", name)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "workload", "value")
	tb.AddRow("web-search", 0.12345)
	tb.AddRow("data-serving", 42.0)
	s := tb.String()
	for _, want := range []string{"Figure X", "workload", "web-search", "0.123", "42"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), s)
	}
}

func TestFormatFloat(t *testing.T) {
	if FormatFloat(3) != "3" {
		t.Error("integral floats render without decimals")
	}
	if FormatFloat(3.14159) != "3.142" {
		t.Errorf("got %s", FormatFloat(3.14159))
	}
}

func TestMeanCI95(t *testing.T) {
	if m, h := MeanCI95(nil); m != 0 || h != 0 {
		t.Error("empty input")
	}
	if m, h := MeanCI95([]float64{5}); m != 5 || h != 0 {
		t.Error("single sample has zero CI")
	}
	// Identical samples: zero half-width.
	if _, h := MeanCI95([]float64{2, 2, 2, 2}); h != 0 {
		t.Errorf("identical samples: CI = %v", h)
	}
	// Known case: {1,2,3}, mean 2, sd 1, t(2)=4.303 -> half = 4.303/sqrt(3).
	m, h := MeanCI95([]float64{1, 2, 3})
	if !almostEq(m, 2) {
		t.Errorf("mean = %v", m)
	}
	want := 4.303 / math.Sqrt(3)
	if math.Abs(h-want) > 1e-3 {
		t.Errorf("half = %v, want %v", h, want)
	}
	// Large n falls back to z=1.96.
	big := make([]float64, 30)
	for i := range big {
		big[i] = float64(i % 2)
	}
	_, h = MeanCI95(big)
	if h <= 0 {
		t.Error("large-sample CI must be positive")
	}
}
