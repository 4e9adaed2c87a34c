package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"bump/internal/obs"
	"bump/internal/sim"
)

// Metrics are the headline derived metrics of a completed run, included
// alongside the raw Result so curl/browser clients need no client-side
// arithmetic.
type Metrics struct {
	IPC           float64 `json:"ipc"`
	RowHitRatio   float64 `json:"row_hit_ratio"`
	EPATotalNJ    float64 `json:"epa_nj"`
	ReadCoverage  float64 `json:"read_coverage"`
	ReadOverfetch float64 `json:"read_overfetch"`
	WriteCoverage float64 `json:"write_coverage"`
}

func MetricsFor(r sim.Result) *Metrics {
	return &Metrics{
		IPC:           r.IPC(),
		RowHitRatio:   r.RowHitRatio(),
		EPATotalNJ:    r.EPATotal * 1e9,
		ReadCoverage:  r.ReadCoverage(),
		ReadOverfetch: r.ReadOverfetch(),
		WriteCoverage: r.WriteCoverage(),
	}
}

// JobPayload is the API representation of a job: the status snapshot
// plus derived metrics once done.
type JobPayload struct {
	JobStatus
	Metrics *Metrics `json:"metrics,omitempty"`
}

func PayloadFor(st JobStatus) JobPayload {
	p := JobPayload{JobStatus: st}
	if st.Result != nil {
		p.Metrics = MetricsFor(*st.Result)
	}
	return p
}

// ResultPayload is served by GET /v1/results/{hash}.
type ResultPayload struct {
	Hash    string     `json:"hash"`
	Result  sim.Result `json:"result"`
	Metrics *Metrics   `json:"metrics"`
}

// HealthPayload is a server's self-description, served by GET
// /v1/healthz on both daemons; a coordinator's probes read it. Counters
// and gauges live only on GET /metrics.
type HealthPayload struct {
	Status string `json:"status"`
	// Version is the snapshot.FormatVersion this build speaks. Warm
	// checkpoints, snapshots and warm keys are not portable across
	// format versions, so a cluster coordinator admits only workers
	// whose version matches its own.
	Version int `json:"version"`
	// WireAddr is the server's binary fast-path listener ("host:port";
	// the host may be empty — clients fill it from the base URL). Absent
	// when no wire listener is serving.
	WireAddr string `json:"wire_addr,omitempty"`
}

// NewHandler exposes a Pool over HTTP/JSON: the job routes of
// MountJobs over the pool, plus
//
//	GET  /v1/jobs/{id}/trace  the job's spans as Chrome trace JSON
//	GET  /v1/healthz          the server's self-description
//	                          (HealthPayload)
//	GET  /metrics             Prometheus text exposition
func NewHandler(p *Pool) http.Handler {
	return NewHandlerInfo(p, ServerInfo{})
}

// ServerInfo is what a server advertises about itself beyond its pool
// — the wire fast-path address plus its observability surfaces.
type ServerInfo struct {
	// WireAddr is the binary protocol listener to advertise in
	// /v1/healthz (empty = no wire listener).
	WireAddr string
	// Metrics, when non-nil, is served as Prometheus text at
	// GET /metrics (normally the same registry the pool records into).
	Metrics *obs.Registry
	// Tracer, when non-nil, serves Chrome trace-event JSON at
	// GET /v1/jobs/{id}/trace (normally the pool's tracer).
	Tracer *obs.Tracer
}

// NewHandlerInfo is NewHandler with server self-description.
func NewHandlerInfo(p *Pool, info ServerInfo) http.Handler {
	s := &server{pool: p, info: info}
	mux := http.NewServeMux()
	MountJobs(mux, p)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace)
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("GET /metrics", MetricsHandler(info.Metrics))
	return mux
}

type server struct {
	pool *Pool
	info ServerInfo
}

// MountJobs registers the /v1 job routes on mux, served by b:
//
//	POST   /v1/jobs             submit a JobSpec; 200 when the status is
//	                            already terminal (a cache hit), else 202
//	GET    /v1/jobs/{id}        a job's status (result once done)
//	DELETE /v1/jobs/{id}        cancel a queued or running job; 409 once
//	                            it is terminal
//	GET    /v1/jobs/{id}/events SSE: `progress` events with engine
//	                            snapshots, then one terminal event named
//	                            after the final state carrying the job
//	                            payload
//	GET    /v1/results/{hash}   cached result by config hash
//	POST   /v1/batch            run a whole sweep; SSE `point` events
//	                            as points finish, then one `batch` event
//	                            with the ordered aggregate (plain JSON
//	                            aggregate for non-SSE clients)
//
// An unknown job ID answers 404 on every route; errStatus maps every
// other Backend error, exactly as the wire protocol does.
func MountJobs(mux *http.ServeMux, b Backend) {
	j := jobRoutes{b: b}
	mux.HandleFunc("POST /v1/jobs", j.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", j.job)
	mux.HandleFunc("DELETE /v1/jobs/{id}", j.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", j.events)
	mux.HandleFunc("GET /v1/results/{hash}", j.result)
	mux.HandleFunc("POST /v1/batch", j.batch)
}

type jobRoutes struct {
	b Backend
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes a {"error": ...} response with the given status.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeBackendError answers with a Backend error's status and message.
func writeBackendError(w http.ResponseWriter, err error) {
	WriteError(w, errStatus(err), "%s", errMessage(err))
}

func (j jobRoutes) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	// The header is the fallback trace-context carrier for clients that
	// cannot touch the spec body; an explicit spec field wins.
	if spec.TraceID == "" {
		spec.TraceID = r.Header.Get(TraceHeader)
	}
	st, err := j.b.Submit(r.Context(), spec)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK
	}
	WriteJSON(w, code, PayloadFor(st))
}

func (j jobRoutes) job(w http.ResponseWriter, r *http.Request) {
	st, err := j.b.Job(r.Context(), r.PathValue("id"))
	if err != nil {
		writeBackendError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, PayloadFor(st))
}

func (j jobRoutes) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := j.b.Cancel(r.Context(), r.PathValue("id"))
	if err != nil {
		writeBackendError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, PayloadFor(st))
}

func (j jobRoutes) result(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	res, ok, err := j.b.ResultByHash(r.Context(), hash)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	if !ok {
		WriteError(w, http.StatusNotFound, "no cached result for %s", hash)
		return
	}
	WriteJSON(w, http.StatusOK, ResultPayload{Hash: hash, Result: res, Metrics: MetricsFor(res)})
}

// events streams a job's progress as Server-Sent Events through
// Backend.Watch: one `progress` event per engine snapshot, then one
// terminal event named after the final state.
func (j jobRoutes) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Resolve the ID before committing to a stream: an unknown job
	// answers 404 like every other route, and a known one gets its
	// headers at once even while it still waits in a queue.
	if _, err := j.b.Job(r.Context(), id); err != nil {
		writeBackendError(w, err)
		return
	}
	fl, ok := startSSE(w)
	if !ok {
		return
	}
	st, err := j.b.Watch(r.Context(), id, func(pr sim.Progress) {
		writeSSE(w, fl, "progress", pr)
	})
	switch {
	case err == nil:
		writeSSE(w, fl, string(st.State), PayloadFor(st))
	case r.Context().Err() == nil:
		writeSSEError(w, fl, err)
	}
}

// batch runs a whole sweep through Backend.Batch. SSE clients (Accept:
// text/event-stream) get a `point` event per completed point and a
// terminal `batch` event with the ordered aggregate; other clients get
// the aggregate as one JSON body once every point is terminal. An
// invalid batch answers 400 before any point is submitted or the
// stream starts.
func (j jobRoutes) batch(w http.ResponseWriter, r *http.Request) {
	var spec BatchSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid batch spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeBackendError(w, err)
		return
	}
	if !wantsSSE(r) {
		res, err := j.b.Batch(r.Context(), spec, nil)
		if err != nil {
			writeBackendError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, res)
		return
	}
	fl, ok := startSSE(w)
	if !ok {
		return
	}
	// onPoint runs serialized, so writes to the stream never interleave.
	res, err := j.b.Batch(r.Context(), spec, func(pt BatchPoint) {
		writeSSE(w, fl, "point", pt)
	})
	if err != nil {
		writeSSEError(w, fl, err)
		return
	}
	writeSSE(w, fl, "batch", res)
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.pool.Health(s.info.WireAddr))
}

// TraceHeader carries the trace ID on HTTP submits, for propagation
// across hops that cannot (or prefer not to) rewrite the spec body.
const TraceHeader = "X-Bump-Trace"

// MetricsHandler serves reg in Prometheus text exposition format (404
// when reg is nil): GET /metrics on both daemons.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			WriteError(w, http.StatusNotFound, "metrics are not enabled")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		reg.WriteText(w)
	}
}

// trace serves a job's recorded spans as Chrome trace-event JSON
// (load in chrome://tracing or Perfetto).
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.info.Tracer == nil {
		WriteError(w, http.StatusNotFound, "tracing is not enabled")
		return
	}
	exp, ok := s.info.Tracer.Export(id, 1, "bumpd")
	if !ok {
		WriteError(w, http.StatusNotFound, "no trace for job %s", id)
		return
	}
	WriteJSON(w, http.StatusOK, exp)
}

// wantsSSE reports whether the request asked for a Server-Sent Event
// stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// startSSE commits the response to a Server-Sent Event stream. It
// answers 500 and returns false when w cannot stream.
func startSSE(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// sseError is the data of an `error` event: a Backend error raised
// after the stream started, with the status writeBackendError would
// have answered before it.
type sseError struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// writeSSEError ends a stream with a Backend error's message and
// status.
func writeSSEError(w http.ResponseWriter, fl http.Flusher, err error) {
	writeSSE(w, fl, "error", sseError{Error: errMessage(err), Code: errStatus(err)})
}

// writeSSE sends one event whose data line is v as JSON.
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	fl.Flush()
}
