package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/engine"
	"repro/internal/headroom"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/vtree"
	"repro/internal/wal"
)

// logger is the process-wide structured logger. run() replaces it
// according to -log-format/-log-level (wrapped in trace.LogHandler so
// request-scoped records carry a trace_id); handlers and serve() log
// through it.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// tracer is the process-wide request tracer; nil when -trace-sample is
// "off". A nil tracer starts no spans, so every instrumentation site
// below is a no-op and /debug/traces answers 404.
var tracer *trace.Tracer

// maxIssueBody caps POST issue request bodies; oversized requests get a
// structured 413. run() overrides it via -max-body.
var maxIssueBody int64 = 1 << 20

// sloObjectives are the service-level objectives every server
// constructed in this process evaluates; run() overrides them via
// -slo-latency / -slo-latency-target / -slo-availability.
var sloObjectives = slo.DefaultObjectives()

// serverObs bundles the observability state both server modes share: the
// metrics registry with all engine-layer hooks wired, the HTTP
// middleware, the SLO service (sliding windows, burn rates, heavy
// hitters), the runtime telemetry collector, and health state.
// Constructing it per server (rather than per process) keeps the test
// servers self-contained; the package-level hooks simply point at the
// most recently constructed registry.
type serverObs struct {
	reg     *obs.Registry
	httpm   *obs.HTTPMetrics
	slo     *slo.Service
	runtime *obs.Runtime
	start   time.Time
	// draining flips when graceful shutdown begins so load balancers
	// stop routing to this instance while in-flight requests finish.
	draining atomic.Bool
	// ready reports whether the corpus/catalog is loaded and servable.
	ready func() error
	// info summarises the serving state for /v1/status; set by the mode
	// constructor after the corpus/catalog is loaded.
	info func() serviceStatus
	// walBacklog sums the fsync backlog over the mode's logs (nil for the
	// router, which has none).
	walBacklog func() int64
	// roleInfo answers the cluster role probe (GET /v1/repl/role); nil
	// defaults to a ready standalone, which is also what pre-cluster
	// peers effectively report (routers treat a 404 probe the same way).
	roleInfo func() cluster.RoleInfo
	// repl supplies the replication block of /v1/status (nil omits it).
	repl func() *replicationStatus
}

func newServerObs(ready func() error) *serverObs {
	reg := obs.NewRegistry()
	// Each package below the server keeps package-level metric hooks;
	// point them all at this registry.
	vtree.Instrument(reg)
	core.Instrument(reg)
	wal.Instrument(reg)
	trace.Instrument(reg)
	headroom.Instrument(reg)
	cluster.Instrument(reg)
	engine.Instrument(reg)
	o := &serverObs{
		reg:   reg,
		httpm: obs.NewHTTPMetrics(reg),
		slo:   slo.NewService(reg, sloObjectives, slo.TrackerConfig{}),
		start: time.Now(),
		ready: ready,
	}
	// Heavy-hitter attribution follows the same discipline: the package
	// hook points at the most recently constructed server.
	engine.Hitters = o.slo.Hitters()
	o.runtime = obs.NewRuntime(reg, func() int64 {
		if o.walBacklog == nil {
			return 0
		}
		return o.walBacklog()
	})
	return o
}

// proxyEndpoint labels the router's catch-all forwarding route. Its
// root spans are named "METHOD /path" per request, so a router root
// lines up by name with the peer root it forwards to.
const proxyEndpoint = "proxy"

// mount serves h at pattern through observed, feeding the pattern's
// endpoint SLO window.
func (o *serverObs) mount(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.Handle(pattern, o.observed(pattern, o.slo.Endpoint(pattern), h))
}

// observedWriter is the serving edge's one status-capturing
// ResponseWriter: the first status written (200 when the handler only
// writes a body, or nothing), plus the entry window a corpus route
// resolved for the request.
type observedWriter struct {
	http.ResponseWriter
	status int
	entry  *slo.Tracker
}

func (w *observedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *observedWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// observed is the request-observation middleware every served route
// passes through: one status-capturing writer and one clock pair per
// request. With tracing on it starts the root span first, continuing an
// incoming traceparent (a request forwarded by the router, or a
// follower's replication fetch) so /v1/cluster/traces/{id} can merge the
// per-process fragments; every layer below hangs its spans off that
// root. When the handler returns it feeds, in order:
//   - the in-flight gauge, the drm_http_request_seconds histogram (the
//     trace ID as exemplar) and the status-class counter of endpoint;
//   - the endpoint's SLO window t (nil for probes and replication polls,
//     which answer 503 by design and must not burn the budget) — 5xx
//     burns availability, and a request at or over the latency threshold
//     has its trace force-retained so the exemplar pointing at it stays
//     resolvable in /debug/traces;
//   - the entry window a corpus route resolved;
//   - the root span (status attributes; >= 400 marks it failed, which
//     tail sampling always retains) and the request log line, which
//     shares the span's trace_id with any error body.
func (o *serverObs) observed(endpoint string, t *slo.Tracker, next http.Handler) http.Handler {
	m := o.httpm.Endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.Begin()
		start := time.Now()
		var sp *trace.Span
		if tracer != nil {
			name := endpoint
			if endpoint == proxyEndpoint {
				name = r.Method + " " + r.URL.Path
			}
			var ctx context.Context
			if rp, ok := trace.Extract(r.Header); ok {
				ctx, sp = tracer.RootRemote(r.Context(), name, rp)
			} else {
				ctx, sp = tracer.Root(r.Context(), name)
			}
			r = r.WithContext(ctx)
		}
		ow := &observedWriter{ResponseWriter: w}
		next.ServeHTTP(ow, r)
		d := time.Since(start)
		status := ow.status
		if status == 0 {
			status = http.StatusOK
		}
		m.End(d, status, sp.TraceID())
		if t != nil {
			t.Observe(d, status >= 500)
			if thr := o.slo.LatencyThreshold(); thr > 0 && d >= thr {
				sp.Retain()
			}
		}
		ow.entry.Observe(d, status >= 500)
		if sp == nil {
			return
		}
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		sp.SetInt("status", int64(status))
		if status >= 400 {
			sp.Fail(fmt.Errorf("HTTP %d", status))
		}
		sp.End()
		lvl := slog.LevelInfo
		switch {
		case status >= 500:
			lvl = slog.LevelError
		case status >= 400:
			lvl = slog.LevelWarn
		}
		logger.LogAttrs(r.Context(), lvl, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status))
	})
}

// drainGuard refuses requests with a typed 503 once graceful shutdown
// has begun, so operators polling /v1/slo or /v1/headroom see an
// explicit "unavailable" instead of racing the listener close.
func (o *serverObs) drainGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if o.draining.Load() {
			writeError(r.Context(), w,
				drmerr.New(drmerr.KindUnavailable, "drmserver", "server draining, retry another instance"))
			return
		}
		h(w, r)
	}
}

// mountCommon adds the routes both server modes share: the Prometheus/
// OpenMetrics exposition (SLO gauges refreshed per scrape), the unified
// status pane, the machine-readable SLO state, the retained-trace ring,
// drain-aware liveness, and readiness. The trace routes dereference the
// package tracer per request so they work (as 404s) when tracing is off.
func (o *serverObs) mountCommon(mux *http.ServeMux) {
	mux.Handle("GET /metrics", o.metricsHandler())
	mux.Handle("GET /debug/traces", traceHandler())
	mux.Handle("GET /debug/traces/{id}", traceHandler())
	o.mount(mux, "GET /v1/status", o.handleStatus)
	o.mount(mux, "GET /v1/slo", o.drainGuard(o.handleSLO))
	// Probes answer 503 by design (drain, warm-up): no SLO window.
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /v1/healthz":   o.handleHealthz,
		"GET /v1/readyz":    o.handleReadyz,
		"GET /v1/repl/role": o.handleRole,
	} {
		mux.Handle(pattern, o.observed(pattern, nil, h))
	}
}

// handleRole is the cluster role probe routers and operators poll: the
// instance's role, readiness, durable sequence, and — for followers —
// replication lag and leader.
func (o *serverObs) handleRole(w http.ResponseWriter, r *http.Request) {
	if o.roleInfo != nil {
		writeJSON(w, http.StatusOK, o.roleInfo())
		return
	}
	writeJSON(w, http.StatusOK, cluster.RoleInfo{
		Role:  cluster.RoleStandalone,
		Ready: o.ready() == nil && !o.draining.Load(),
	})
}

// metricsHandler refreshes the drm_slo_* gauges and samples the
// drm_runtime_* gauges before every scrape, so burn rates, windowed
// quantiles and runtime state are current, then defers to the
// registry's content-negotiating exposition handler.
func (o *serverObs) metricsHandler() http.Handler {
	inner := o.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.slo.Refresh()
		o.runtime.Sample()
		inner.ServeHTTP(w, r)
	})
}

// traceHandler serves the package tracer's ring; nil-safe (404 when
// tracing is off).
func traceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tracer.Handler().ServeHTTP(w, r)
	})
}

// handleHealthz is liveness: 200 while serving, 503 once graceful
// shutdown has begun (the drain window).
func (o *serverObs) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if o.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 once the corpus/catalog is loaded —
// and, on a follower, once replication lag is inside -max-lag. Errors
// in the drmerr taxonomy (a lagging replica's KindReplicaLag, say)
// answer with the typed {error, kind} body so orchestrators can
// distinguish "still catching up" from "corpus missing".
func (o *serverObs) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := o.ready(); err != nil {
		if drmerr.KindOf(err) != drmerr.KindUnknown {
			writeJSON(w, http.StatusServiceUnavailable, body(r.Context(), err))
			return
		}
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unready", "reason": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
