// Command bench is the repository's benchmark. It runs four workloads
// (figures, sweep-pool, sweep-fleet, scenarios), prints every end-to-end
// and per-layer metric by name with its unit, and checks that the
// simulator's outputs are correct. It reaches each layer only through
// the program's public calls; BENCHMARK.json at the repository root
// lists the workloads and metrics, and README.md defines them.
//
// Run from this directory:
//
//	go run . -seed 1                        # every workload, untraced then traced
//	go run . -seed 1 -json out.json         # ... and write the full report
//	go run . -workload sweep-pool -trace 1  # one workload, in this process
//
// Without -workload each workload runs in a child process of its own
// (this binary, re-executed), so CPU time and peak RSS are per workload.
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
// metrics (-trace 0) or the per-layer ones (-trace 1). The exit status
// is non-zero when any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"bump/bench/report"
)

// defaultSeconds is one run's time budget; BENCHMARK.json's run_seconds
// is the same.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run in this process: figures, sweep-pool, sweep-fleet, scenarios, or all (each in a child process, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed every workload derives its inputs from")
		seconds = flag.Int("seconds", defaultSeconds, "time budget for one run's timed passes, in seconds (at least one pass always runs)")
		trace   = flag.Int("trace", 0, "with -workload: 0 for end-to-end metrics, 1 for the traced run's per-layer metrics")
		jsonOut = flag.String("json", "", "write the full report (samples, quartiles, bounds) to this file")
		workdir = flag.String("workdir", ".bench_build/work", "directory for the fleet's WAL and checkpoint stores and for child reports")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	rep := &report.Report{
		Host: report.Host{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
		},
		Seed:      *seed,
		Seconds:   *seconds,
		Workloads: make(map[string]*report.Workload),
	}

	if *name == "all" {
		ok := runAll(rep, *workdir)
		printReport(os.Stdout, rep)
		writeReport(*jsonOut, rep)
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	res := runWorkload(w, runOpts{
		env:       env{seed: *seed, scale: fullScale, workdir: *workdir},
		seconds:   float64(*seconds),
		traced:    *trace == 1,
		setupReps: 7,
	})
	rep.Workloads[w.name] = res
	printReport(os.Stdout, rep)
	writeReport(*jsonOut, rep)
	printResultLine(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload untraced and then traced, each in a child
// process, merges their reports into rep, and checks that both sweeps
// produced the same results.
func runAll(rep *report.Report, workdir string) bool {
	self, err := os.Executable()
	if err != nil {
		fatalf("locate own binary: %v", err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	ok := true
	for _, w := range workloads {
		merged := &report.Workload{}
		for _, trace := range []int{0, 1} {
			path := filepath.Join(workdir, fmt.Sprintf("%s-trace%d.json", w.name, trace))
			os.Remove(path)
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(rep.Seed, 10),
				"-seconds", strconv.Itoa(rep.Seconds), "-trace", strconv.Itoa(trace),
				"-json", path, "-workdir", workdir)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			fmt.Fprintf(os.Stderr, "== %s, trace %d\n", w.name, trace)
			runErr := cmd.Run()
			child, err := report.Read(path)
			if err != nil || child.Workloads[w.name] == nil {
				merged.Attempted++
				merged.Failed++
				merged.Errors = append(merged.Errors, fmt.Sprintf("trace %d run: %v, report: %v", trace, runErr, err))
				continue
			}
			os.Remove(path)
			res := child.Workloads[w.name]
			merged.Attempted += res.Attempted
			merged.Failed += res.Failed
			merged.Passes += res.Passes
			merged.Errors = append(merged.Errors, res.Errors...)
			if trace == 0 {
				merged.EndToEnd, merged.Digest = res.EndToEnd, res.Digest
			} else {
				merged.PerLayer = res.PerLayer
			}
		}
		rep.Workloads[w.name] = merged
	}
	pool, fleet := rep.Workloads["sweep-pool"], rep.Workloads["sweep-fleet"]
	fleet.Attempted++
	if pool.Digest == "" || pool.Digest != fleet.Digest {
		fleet.Failed++
		fleet.Errors = append(fleet.Errors, fmt.Sprintf("sweep-fleet digest %s differs from sweep-pool digest %s", fleet.Digest, pool.Digest))
	}
	for _, w := range rep.Workloads {
		w.Correct = w.Failed == 0 && w.Attempted > 0
		ok = ok && w.Correct
	}
	return ok
}

// printReport writes every metric of every workload in rep, by name and
// unit, followed by the workload's checks.
func printReport(out io.Writer, rep *report.Report) {
	h := rep.Host
	fmt.Fprintf(out, "bench: seed %d, nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		rep.Seed, h.NProc, h.GOMAXPROCS, h.Go, h.OS, h.Arch)
	for _, w := range workloads {
		res, ok := rep.Workloads[w.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "\n%s (%d passes): %s\n", w.name, res.Passes, w.why)
		if len(res.EndToEnd) > 0 {
			fmt.Fprintf(out, "  %-36s %14s %-12s %12s %12s %4s\n", "end-to-end", "value", "unit", "q1", "q3", "n")
			for _, def := range endToEnd {
				m := res.EndToEnd[def.name]
				fmt.Fprintf(out, "  %-36s %14.6g %-12s %12.6g %12.6g %4d\n", def.name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
			}
		}
		if len(res.PerLayer) > 0 {
			fmt.Fprintf(out, "  %-36s %14s %-12s\n", "per-layer (traced)", "value", "unit")
			for _, def := range perLayer {
				m := res.PerLayer[def.name]
				fmt.Fprintf(out, "  %-36s %14.6g %-12s\n", def.name, m.Value, m.Unit)
			}
		}
		fmt.Fprintf(out, "  checks: %d attempted, %d failed, failed_frac %.4g\n",
			res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
		for _, e := range res.Errors {
			fmt.Fprintf(out, "  FAILED: %s\n", e)
		}
	}
}

// printResultLine writes the one-line JSON result of a single-workload
// run: its end-to-end or per-layer metrics, whichever it measured.
func printResultLine(out io.Writer, res *report.Workload) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, set := range []map[string]report.Metric{res.EndToEnd, res.PerLayer} {
		for k, m := range set {
			metrics[k] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

func writeReport(path string, rep *report.Report) {
	if path == "" {
		return
	}
	if err := report.Write(path, rep); err != nil {
		fatalf("write report: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
