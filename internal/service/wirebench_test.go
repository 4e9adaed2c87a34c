package service

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"bump/internal/wire"
)

// BenchmarkClientSubmitRoundtrip measures per-call client overhead of
// the two protocols on the hottest endpoint: submitting a spec whose
// result is already cached (born-done), so the round trip is pure
// transport + codec. Run with BENCH_JSON=<path> to materialise the
// comparison as a machine-readable artifact.
func BenchmarkClientSubmitRoundtrip(b *testing.B) {
	pool := NewPool(Options{Workers: 2})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ws := wire.Serve(l, NewWireHandler(pool))
	defer ws.Close()
	srv := httptest.NewServer(NewHandlerInfo(pool, ServerInfo{WireAddr: l.Addr().String()}))
	defer srv.Close()

	spec := JobSpec{Workload: "web-search", Mechanism: "bump", WarmupCycles: 1_000, MeasureCycles: 2_000}

	// Prime the result cache so every benchmarked submit is born done.
	prime := NewClient(srv.URL)
	st, err := prime.Submit(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	if fin, err := prime.Watch(context.Background(), st.ID, nil); err != nil || fin.State != StateDone {
		b.Fatalf("prime job: %v %s", err, fin.State)
	}
	prime.Close()

	type sample struct {
		nsPerOp     float64
		allocsPerOp float64
	}
	samples := map[string]sample{}

	run := func(name string, jsonOnly bool) {
		b.Run(name, func(b *testing.B) {
			c := NewClient(srv.URL)
			c.DisableWire = jsonOnly
			defer c.Close()
			// One unmeasured call: connection setup + wire negotiation.
			if st, err := c.Submit(context.Background(), spec); err != nil || st.State != StateDone {
				b.Fatalf("warm call: %v %+v", err, st)
			}
			if !jsonOnly && c.WireStats().Calls == 0 {
				b.Fatal("wire variant did not negotiate onto the wire path")
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := c.Submit(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if st.State != StateDone {
					b.Fatalf("submit not served from cache: %s", st.State)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			samples[name] = sample{
				nsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(b.N),
			}
		})
	}
	run("json", true)
	run("wire", false)

	j, w := samples["json"], samples["wire"]
	if j.nsPerOp > 0 && w.nsPerOp > 0 {
		b.ReportMetric(j.nsPerOp/w.nsPerOp, "time-speedup")
		b.ReportMetric(j.allocsPerOp/w.allocsPerOp, "alloc-ratio")
	}
	writeRoundtripBenchJSON(b, j.nsPerOp, j.allocsPerOp, w.nsPerOp, w.allocsPerOp)
}

// writeRoundtripBenchJSON records the JSON-vs-wire comparison as a
// machine-readable artifact when BENCH_JSON names a path (CI uploads it
// per commit, same hook as the simulator throughput bench).
func writeRoundtripBenchJSON(b *testing.B, jsonNs, jsonAllocs, wireNs, wireAllocs float64) {
	path := os.Getenv("BENCH_JSON")
	if path == "" || jsonNs == 0 || wireNs == 0 {
		return
	}
	payload := map[string]any{
		"benchmark":    "ClientSubmitRoundtrip",
		"json":         map[string]float64{"ns_per_op": jsonNs, "allocs_per_op": jsonAllocs},
		"wire":         map[string]float64{"ns_per_op": wireNs, "allocs_per_op": wireAllocs},
		"time_speedup": jsonNs / wireNs,
		"alloc_ratio":  jsonAllocs / wireAllocs,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench json: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
	b.Logf("wrote %s", path)
}
