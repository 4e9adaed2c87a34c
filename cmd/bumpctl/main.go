// Command bumpctl coordinates a fleet of bumpd workers behind one
// endpoint. It serves the same /v1 job and batch API as a single bumpd —
// the same handler (service.MountJobs) and wire server, over the
// coordinator's service.Backend — so every existing client (sweep
// -server, curl scripts, service.Client) works unchanged, plus
// cluster-only endpoints for topology and traces. A sweep is its
// points: each is an ordinary job, routed by its own key.
//
// Jobs are routed by warm-affinity key: every point of a measured-
// parameter sweep shares one structural config digest, so the whole
// sweep lands on the same worker and its warm-checkpoint store (bumpd
// -warm) simulates the warmup exactly once. Workers are health-checked
// continuously: ejected after consecutive failures, re-probed with
// exponential backoff, readmitted when they recover, and rejected
// outright when their snapshot format version differs from this
// build's (warm checkpoints are not portable across versions). A job
// whose worker dies mid-run fails over to the next worker on the ring,
// which re-simulates the sweep's warmup once; results stay
// byte-identical because they are a deterministic function of the
// config.
//
// The fleet is the -workers list, and only that list: a data dir does
// not record it, so a restart with an edited list serves exactly the
// new one, and bumpctl without -workers exits with an error. A list that
// names one worker twice is refused. With -data-dir the coordinator is
// durable: every accepted job ID is written to a write-ahead log before
// the client hears about it. A coordinator restarted on the same
// directory replays the log, re-answers every pre-crash job ID, and
// re-drives unfinished work to completion; a job recorded on a worker
// the new list drops fails over like a job on a dead worker. A sweep
// cut short by a restart is the client's to resubmit: its finished
// points are answered from the workers' result caches, and its running
// ones coalesce by config hash.
//
// Usage:
//
//	bumpctl -workers http://h1:8344,http://h2:8344,http://h3:8344 -addr :8343
//	bumpctl -workers http://h1:8344,http://h2:8344 -data-dir /var/lib/bumpctl   # durable
//
// Endpoints (see internal/cluster):
//
//	POST   /v1/jobs             submit a job (affinity-routed, durable ID)
//	GET    /v1/jobs/{id}        poll a job (answered across restarts)
//	GET    /v1/jobs/{id}/events SSE progress stream (follows failover)
//	GET    /v1/jobs/{id}/trace  stitched coordinator+worker trace JSON
//	DELETE /v1/jobs/{id}        cancel a job (404 unknown, 409 terminal)
//	POST   /v1/batch            run a whole sweep; SSE per-point events
//	GET    /v1/results/{hash}   cached result, fleet-wide lookup
//	GET    /v1/healthz          self-description: fleet status, version, wire
//	GET    /v1/cluster          topology: per-worker state and failures
//	GET    /metrics             Prometheus text: fleet, job, WAL, wire, conn series
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bump/internal/cluster"
	"bump/internal/obs"
	"bump/internal/service"
	"bump/internal/wal"
	"bump/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":8343", "listen address")
		workers   = flag.String("workers", "", "comma-separated bumpd worker base URLs")
		probe     = flag.Duration("probe-interval", 2*time.Second, "worker health-probe period")
		failAfter = flag.Int("fail-after", 3, "consecutive failures before a worker is ejected")
		backoff   = flag.Duration("backoff", time.Second, "initial readmission-probe backoff for a down worker (doubles per failure)")
		backoffMx = flag.Duration("backoff-max", 30*time.Second, "readmission-probe backoff ceiling")
		reqTO     = flag.Duration("request-timeout", 30*time.Second, "per-request timeout for worker calls")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		dataDir   = flag.String("data-dir", "", "WAL directory for durable coordinator state (empty = memory-only)")
		segBytes  = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size (0 = 4MiB default)")
		noSync    = flag.Bool("wal-no-sync", false, "skip fsync on WAL appends (faster, loses the tail on power loss)")
		compactN  = flag.Uint64("compact-every", 0, "WAL appends between checkpoint compactions (0 = 512 default)")
		retainJ   = flag.Int("retain-jobs", 0, "terminal job records, batch points included, retained for status queries (0 = 4096 default)")
		wireAddr  = flag.String("wire-addr", ":8346", "binary wire protocol listen address (empty = HTTP/JSON only)")
		jsonOnly  = flag.Bool("json-only", false, "talk HTTP/JSON to workers even when they advertise a wire listener")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	var workerURLs []string
	if *workers != "" {
		workerURLs = strings.Split(*workers, ",")
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		slog.Error("bumpctl: bad -log-level", "error", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// Observability: fleet topology, job states, WAL and aggregated
	// worker wire stats become scrapeable series; every tracked job
	// records routing/failover spans stitched with its worker's at
	// GET /v1/jobs/{id}/trace.
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(0)

	coord, err := cluster.New(context.Background(), cluster.Options{
		Workers: workerURLs,
		Registry: cluster.RegistryOptions{
			ProbeInterval:  *probe,
			FailAfter:      *failAfter,
			BackoffBase:    *backoff,
			BackoffMax:     *backoffMx,
			RequestTimeout: *reqTO,
			DisableWire:    *jsonOnly,
		},
		DataDir:      *dataDir,
		WAL:          wal.Options{SegmentBytes: *segBytes, NoSync: *noSync},
		CompactEvery: *compactN,
		RetainJobs:   *retainJ,
		Metrics:      metrics,
		Tracer:       tracer,
		Logger:       logger,
	})
	if err != nil {
		slog.Error("startup", "error", err)
		os.Exit(1)
	}
	top := coord.Topology()
	for _, w := range top.Workers {
		slog.Info("worker", "id", w.ID, "url", w.URL, "state", w.State)
	}
	slog.Info("fleet", "up", top.Up, "total", top.Total, "format_version", top.Version)
	if *dataDir != "" {
		st := coord.Store().Stats()
		slog.Info("durable state replayed", "dir", *dataDir,
			"records", st.WAL.Replayed, "jobs", st.ReplayedJobs,
			"recovered_inflight", st.RecoveredJobs)
	}

	// Binary wire listener: the coordinator serves the same hot surface
	// (submit, status, watch, result, batch) over persistent framed
	// connections; clients discover it via /v1/healthz wire_addr.
	var wireSrv *wire.Server
	if *wireAddr != "" {
		l, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			slog.Error("wire listen", "addr", *wireAddr, "error", err)
			os.Exit(1)
		}
		wireSrv = wire.Serve(l, service.NewWireHandler(coord))
		flagHost, _, herr := net.SplitHostPort(*wireAddr)
		if herr != nil {
			flagHost = ""
		}
		_, boundPort, _ := net.SplitHostPort(l.Addr().String())
		coord.SetWireAddr(net.JoinHostPort(flagHost, boundPort))
		slog.Info("wire protocol listening", "addr", l.Addr().String())
	}

	srv := &http.Server{
		Addr:        *addr,
		Handler:     logRequests(coord.Handler()),
		ReadTimeout: 30 * time.Second,
		// No WriteTimeout: SSE streams stay open for a job's lifetime;
		// worker-side timeouts bound them instead.
	}

	errc := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		slog.Info("draining", "signal", sig.String(), "window", *drain)
	case err := <-errc:
		coord.Close()
		slog.Error("serve", "error", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		slog.Warn("shutdown", "error", err)
	}
	if wireSrv != nil {
		wireSrv.Close()
	}
	coord.Close()
	slog.Info("stopped")
}

// logRequests is a minimal structured access log; the trace header, when
// a client sent one, ties the request line to its job timeline.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		args := []any{"method", r.Method, "path", r.URL.Path,
			"duration", time.Since(start).Round(time.Millisecond)}
		if tid := r.Header.Get(service.TraceHeader); tid != "" {
			args = append(args, "trace", tid)
		}
		slog.Debug("request", args...)
	})
}
