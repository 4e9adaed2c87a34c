// Command bumpd serves BuMP simulations over HTTP: submit jobs, poll
// status, stream progress, and read cached results. Duplicate
// configurations are coalesced to one execution; completed results are
// served from an LRU cache without re-running.
//
// Usage:
//
//	bumpd                                  # listen on :8344
//	bumpd -addr :9000 -workers 8 -cache 512 -timeout 5m
//
// A bumpctl coordinator reaches this worker through its -workers list
// and health-probes GET /v1/healthz.
//
// Job specs may name a built-in scenario instead of a workload
// (consolidated, diurnal-shift, phase-swap, bursty-writer) or carry a
// full inline spec under "scenario_spec"; any other scenario name is
// refused with 400. The resolved scenario is part of the config hash,
// so scenario jobs coalesce and cache like any other.
//
// The pool is the service.Backend that both transports serve: the HTTP
// routes below (service.MountJobs) and the binary wire listener.
//
// Endpoints (see internal/service):
//
//	POST   /v1/jobs             submit a job spec
//	GET    /v1/jobs/{id}        poll a job
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/jobs/{id}/trace  Chrome trace-event JSON for the job
//	DELETE /v1/jobs/{id}        cancel a job (404 unknown, 409 terminal)
//	POST   /v1/batch            run a whole sweep
//	GET    /v1/results/{hash}   cached result by config hash
//	GET    /v1/healthz          self-description: status, version, wire
//	GET    /metrics             Prometheus text: every pool/cache/warm/conn counter
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
	"syscall"
	"time"

	"bump/internal/blob"
	"bump/internal/obs"
	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":8344", "listen address")
		workers  = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		cacheSz  = flag.Int("cache", 256, "result-cache entries")
		retain   = flag.Int("retain", 4096, "terminal job records kept for status queries")
		timeout  = flag.Duration("timeout", 10*time.Minute, "default per-job timeout (0 = none)")
		interval = flag.Uint64("progress-interval", 0, "cycles between progress events (0 = 1/64 of each run)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		warm     = flag.Bool("warm", false, "share warmup-end checkpoints between jobs that differ only in measured parameters")
		warmSz   = flag.Int("warm-cache", 64, "warm-checkpoint cache entries (with -warm); fork sweeps hold a tree node per cut alongside the warmup roots, so keep this above cuts x structural variants")
		warmDir  = flag.String("warm-dir", "", "content-addressed checkpoint store directory (implies -warm; a restarted worker restores its warmups from it)")
		warmDisk = flag.Int64("warm-disk-bytes", blob.DefaultCapacity, "checkpoint store size bound in bytes (with -warm-dir)")
		wireAddr = flag.String("wire-addr", ":8345", "binary wire protocol listen address (empty = HTTP/JSON only)")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		slog.Error("bumpd: bad -log-level", "error", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// Observability: every pool/cache/warm statistic becomes a
	// scrapeable series, and every job records a span timeline served at
	// GET /v1/jobs/{id}/trace.
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(0)

	var warmBackend sim.WarmBackend
	var blobStore *blob.Store
	if *warmDir != "" {
		bs, err := blob.Open(*warmDir, *warmDisk)
		if err != nil {
			slog.Error("open checkpoint store", "dir", *warmDir, "error", err)
			os.Exit(1)
		}
		blobStore = bs
		warmBackend = bs
		st := bs.Stats()
		slog.Info("checkpoint store open", "dir", *warmDir,
			"blobs", st.Blobs, "bytes", st.Bytes, "capacity", st.Capacity)
	}
	pool := service.NewPool(service.Options{
		Workers:          *workers,
		CacheEntries:     *cacheSz,
		RetainJobs:       *retain,
		DefaultTimeout:   *timeout,
		ProgressInterval: *interval,
		WarmStarts:       *warm,
		WarmEntries:      *warmSz,
		WarmBackend:      warmBackend,
		Metrics:          metrics,
		Tracer:           tracer,
	})

	// Binary wire listener: the advertised address keeps the flag's host
	// (may be empty — clients fill it from the worker's base URL) with
	// the port the listener actually bound (":0" resolves here).
	var wireSrv *wire.Server
	advertisedWire := ""
	if *wireAddr != "" {
		l, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			slog.Error("wire listen", "addr", *wireAddr, "error", err)
			os.Exit(1)
		}
		wireSrv = wire.Serve(l, service.NewWireHandler(pool))
		flagHost, _, err := net.SplitHostPort(*wireAddr)
		if err != nil {
			flagHost = ""
		}
		_, boundPort, _ := net.SplitHostPort(l.Addr().String())
		advertisedWire = net.JoinHostPort(flagHost, boundPort)
		slog.Info("wire protocol listening", "addr", l.Addr().String(), "advertised", advertisedWire)
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: logRequests(service.NewHandlerInfo(pool, service.ServerInfo{
			WireAddr: advertisedWire,
			Metrics:  metrics,
			Tracer:   tracer,
		})),
		ReadTimeout: 30 * time.Second,
		// No WriteTimeout: SSE streams stay open for a job's lifetime;
		// the per-job timeout bounds them instead.
	}

	errc := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", *addr, "workers", pool.Stats().Workers,
			"cache", *cacheSz, "timeout", *timeout)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		slog.Info("draining", "signal", sig.String(), "window", *drain)
	case err := <-errc:
		pool.Close()
		slog.Error("serve", "error", err)
		os.Exit(1)
	}

	// Graceful shutdown: stop accepting connections, give in-flight
	// requests the drain window, then cancel every remaining job.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		slog.Warn("shutdown", "error", err)
	}
	if wireSrv != nil {
		wireSrv.Close()
	}
	pool.Close()
	if blobStore != nil {
		blobStore.Close()
	}
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
