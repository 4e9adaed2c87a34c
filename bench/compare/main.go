// Command compare sets a change's benchmark report against its parent's.
//
//	go run ./compare parent.json change.json
//
// For every end-to-end metric of every workload it prints both sides'
// medians and quartiles and a verdict:
//
//   - better: the change's median beats the parent's by more than the
//     parent's own spread (the distance between its quartiles);
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: either side's spread exceeds the bound, so a move
//     within it cannot be told from noise (unless every change sample
//     beats every parent sample, which reads better);
//   - within bound: anything else.
//
// A side with fewer than three samples has no usable spread: it can read
// worse or within bound, never better. compare then diffs every exact
// (deterministic) per-layer value and the result digests, which must be
// bit-identical for a change that claims to alter only host performance.
// The exit status is 1 when any metric is worse or any exact value
// differs.
package main

import (
	"fmt"
	"os"
	"sort"

	"bump/bench/report"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare parent.json change.json")
		os.Exit(2)
	}
	parent, err := report.Read(os.Args[1])
	if err != nil {
		fatal(err)
	}
	change, err := report.Read(os.Args[2])
	if err != nil {
		fatal(err)
	}

	bad := false
	fmt.Printf("%-12s %-14s %12s %12s %12s   %12s %12s %12s   %s\n",
		"workload", "metric", "parent", "p.q1", "p.q3", "change", "c.q1", "c.q3", "verdict")
	for _, name := range workloadNames(parent) {
		pw, cw := parent.Workloads[name], change.Workloads[name]
		if cw == nil {
			fmt.Printf("%-12s missing from the change's report\n", name)
			bad = true
			continue
		}
		for _, metric := range sortedKeys(pw.EndToEnd) {
			pm, cm := pw.EndToEnd[metric], cw.EndToEnd[metric]
			v := verdict(pm, cm)
			bad = bad || v == "worse"
			fmt.Printf("%-12s %-14s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g   %s\n",
				name, metric, pm.Value, pm.Q1, pm.Q3, cm.Value, cm.Q1, cm.Q3, v)
		}
	}

	fmt.Println()
	diffs := 0
	for _, name := range workloadNames(parent) {
		pw, cw := parent.Workloads[name], change.Workloads[name]
		if cw == nil {
			continue
		}
		if pw.Digest != cw.Digest {
			fmt.Printf("%-12s digest          %s -> %s\n", name, pw.Digest, cw.Digest)
			diffs++
		}
		for _, metric := range sortedKeys(pw.PerLayer) {
			pm, cm := pw.PerLayer[metric], cw.PerLayer[metric]
			if pm.Exact && pm.Value != cm.Value {
				fmt.Printf("%-12s %-32s %.17g -> %.17g\n", name, metric, pm.Value, cm.Value)
				diffs++
			}
		}
	}
	if diffs > 0 {
		fmt.Printf("%d exact values differ\n", diffs)
		bad = true
	} else {
		fmt.Println("every exact value and digest is identical")
	}
	if bad {
		os.Exit(1)
	}
}

// verdict classifies the change's samples of one metric against the
// parent's (see the package comment).
func verdict(p, c report.Metric) string {
	if p.Value == 0 {
		return "no parent value"
	}
	sign := 1.0
	if p.Better == "higher" {
		sign = -1
	}
	worse := sign * (c.Value - p.Value) / p.Value // > 0: the change is worse
	spread := func(m report.Metric) (float64, bool) {
		if len(m.Samples) < 3 || m.Value == 0 {
			return 0, false
		}
		return (m.Q3 - m.Q1) / m.Value, true
	}
	ps, pok := spread(p)
	cs, cok := spread(c)
	switch {
	case pok && cok && -worse > ps && beatsAll(c.Samples, p.Samples, sign):
		return "better"
	case pok && cok && max(ps, cs) > p.Bound:
		return "unresolved"
	case worse > p.Bound:
		return "worse"
	case pok && cok && -worse > ps:
		return "better"
	}
	return "within bound"
}

// beatsAll reports whether every change sample is better than every
// parent sample.
func beatsAll(change, parent []float64, sign float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				return false
			}
		}
	}
	return true
}

func workloadNames(r *report.Report) []string { return sortedKeys(r.Workloads) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}
