// Package stats provides the small statistical toolkit used across the
// simulator: counters, ratios, weighted means, exact distributions, and
// fixed-width text tables for the figure/table regeneration harness.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Ratio returns num/den, or 0 when den == 0. The simulator reports many
// ratios over event counts that can legitimately be zero in short runs.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Pct returns 100*num/den, or 0 when den == 0.
func Pct(num, den uint64) float64 { return 100 * Ratio(num, den) }

// Improvement returns the relative improvement of value over base as a
// fraction: (base-value)/base. Positive means "value is lower/better".
func Improvement(base, value float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - value) / base
}

// Speedup returns value/base - 1 as a fraction. Positive means faster.
func Speedup(base, value float64) float64 {
	if base == 0 {
		return 0
	}
	return value/base - 1
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values.
func GeoMean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// MeanCI95 returns the sample mean and the half-width of its 95%
// confidence interval (Student's t for small samples). The paper reports
// performance "at a 95% confidence level and an average error below 2%"
// (SMARTS methodology); multi-seed runs reproduce that discipline.
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n == 1 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	// Two-sided 95% t quantiles for n-1 degrees of freedom.
	t := []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228}
	q := 1.96
	if n-1 < len(t) {
		q = t[n-1]
	}
	return mean, q * sd / math.Sqrt(float64(n))
}

// Dist is an exact distribution of whole-number samples, such as
// latencies in cycles. It keeps one count per value, from 0 up to the
// largest sample seen, so its size follows the range of the values, not
// the number of samples, and a percentile is a walk over the counts.
type Dist struct {
	counts []uint64 // counts[v] is the number of samples equal to v
	n      uint64
	// sum is exact: the simulator's samples are cycle counts, so every
	// partial sum stays far below 2^53 and float64(sum) is the value a
	// float64 running sum of the same samples would hold, bit for bit.
	sum uint64
}

// Add records one sample.
func (d *Dist) Add(x uint64) {
	if x >= uint64(len(d.counts)) {
		d.counts = append(d.counts, make([]uint64, x+1-uint64(len(d.counts)))...)
	}
	d.counts[x]++
	d.n++
	d.sum += x
}

// N returns the number of samples.
func (d *Dist) N() int { return int(d.n) }

// Mean returns the sample mean (0 if empty).
func (d *Dist) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.n)
}

// Percentile returns the p-th percentile (0..100) by nearest rank: the
// sample at 0-based rank ceil(p/100*N)-1 in sorted order, clamped to
// the samples.
func (d *Dist) Percentile(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(d.n))) - 1
	if rank < 0 {
		rank = 0
	}
	if uint64(rank) >= d.n {
		rank = int(d.n - 1)
	}
	var seen uint64
	for v, c := range d.counts {
		seen += c
		if seen > uint64(rank) {
			return float64(v)
		}
	}
	return float64(len(d.counts) - 1)
}

// Table renders fixed-width text tables; the figure harness uses it so
// every regenerated figure prints the same way in tests, benches and cmds.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders floats compactly: integers without decimals,
// otherwise 3 significant decimals.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.headers))
	for i, h := range t.headers {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
