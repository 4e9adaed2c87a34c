package service

import (
	"context"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// sharedTransport is the one pooled HTTP transport behind every Client:
// keep-alives on, enough idle connections per host that a coordinator
// polling and streaming a whole fleet never churns TCP connections.
// Per-client transports would each hold their own idle pool and defeat
// reuse across the registry's many Client instances.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   30 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          512,
	MaxIdleConnsPerHost:   32,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: time.Second,
}

// ConnStats counts HTTP connection reuse process-wide (the transport is
// shared), published on /metrics (GatherConnStats) so operators can see
// per-request connection churn — the overhead the wire fast path exists
// to remove.
type ConnStats struct {
	Requests uint64 `json:"requests"`
	Dialed   uint64 `json:"dialed"`
	Reused   uint64 `json:"reused"`
}

var (
	connRequests atomic.Uint64
	connDialed   atomic.Uint64
	connReused   atomic.Uint64
)

// SharedConnStats returns cumulative connection-reuse counters for the
// shared transport.
func SharedConnStats() ConnStats {
	return ConnStats{
		Requests: connRequests.Load(),
		Dialed:   connDialed.Load(),
		Reused:   connReused.Load(),
	}
}

// traceConns annotates ctx so the request's connection acquisition is
// counted in SharedConnStats.
func traceConns(ctx context.Context) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			connRequests.Add(1)
			if info.Reused {
				connReused.Add(1)
			} else {
				connDialed.Add(1)
			}
		},
	})
}
