// Package report is the benchmark's result format, shared by the harness
// that writes it and the compare tool that reads it, plus the quantile
// arithmetic both use.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric is one named measurement. End-to-end metrics carry every
// per-pass sample (Value is their median, Q1/Q3 their quartiles) and the
// bound by which a change may worsen them; per-layer metrics carry one
// value from the traced pass.
type Metric struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"` // "lower" or "higher"
	Bound   float64   `json:"bound,omitempty"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
	// N counts the observations behind Value: passes, set-ups, or (for
	// point percentiles, pooled over passes) points.
	N int `json:"n,omitempty"`
	// Exact marks a deterministic value: simulated statistics and the
	// counts derived from them must repeat bit-identically for any
	// change that claims to alter only host performance.
	Exact bool `json:"exact,omitempty"`
}

// Workload is one workload's outcome: its correctness ledger and its
// metrics.
type Workload struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Passes    int               `json:"passes"`
	Digest    string            `json:"digest,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]Metric `json:"per_layer,omitempty"`
}

// Host records the facts a measurement depends on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// Report is a whole benchmark run.
type Report struct {
	Host      Host                 `json:"host"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Workloads map[string]*Workload `json:"workloads"`
}

// Read loads a report written by Write.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Write stores r as indented JSON.
func Write(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so a spread computed here matches one computed
// from the same values there. One sample is its own quartiles; none
// yields zeros.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	q := [3]float64{}
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], median50(s), q[2]
}

// Median returns the middle of xs (the mean of the middle two for an
// even count).
func Median(xs []float64) float64 { return median50(sorted(xs)) }

// Percentile returns the p-th percentile (0-100) of xs, interpolating
// linearly between the closest ranks.
func Percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median50(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
