package obs

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// openMetricsContentType is what content-negotiated scrapes get;
// the default stays Prometheus text 0.0.4.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Handler serves the registry — mount it at GET /metrics. The default
// response is Prometheus text format 0.0.4; a client whose Accept
// header asks for application/openmetrics-text (or that passes
// ?format=openmetrics) gets the OpenMetrics rendering, which carries
// the histogram exemplars linking buckets to trace IDs.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") ||
			req.URL.Query().Get("format") == "openmetrics" {
			w.Header().Set("Content-Type", openMetricsContentType)
			if err := r.WriteOpenMetrics(w); err != nil {
				_ = err
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The response is already streaming; nothing useful to do.
			_ = err
		}
	})
}

// HTTPMetrics holds the server's standard HTTP signals: per-endpoint
// request counts bucketed by status class, a per-endpoint latency
// histogram, and a server-wide in-flight gauge. The server's request
// middleware records into them through one Endpoint handle per route.
type HTTPMetrics struct {
	requests *CounterVec
	latency  *HistogramVec
	inflight *Gauge

	mu        sync.Mutex
	endpoints map[string]*Histogram
}

// NewHTTPMetrics registers the HTTP metric families on reg.
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: reg.CounterVec("drm_http_requests_total",
			"HTTP requests served, by endpoint and status class.",
			"endpoint", "class"),
		latency: reg.HistogramVec("drm_http_request_seconds",
			"HTTP request latency by endpoint.", nil, "endpoint"),
		inflight: reg.Gauge("drm_http_inflight",
			"HTTP requests currently being served."),
		endpoints: make(map[string]*Histogram),
	}
}

// statusClasses are the five Prometheus-conventional status classes;
// index is status/100 - 1.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// EndpointMetrics is one endpoint's observe handle. Its series are
// resolved once at wiring time, so a request costs one gauge inc/dec,
// one histogram observation, and one counter inc — no map lookups.
type EndpointMetrics struct {
	inflight *Gauge
	latency  *Histogram
	classes  [5]*Counter
}

// Endpoint returns the observe handle for one endpoint label.
func (m *HTTPMetrics) Endpoint(name string) *EndpointMetrics {
	e := &EndpointMetrics{inflight: m.inflight, latency: m.latency.With(name)}
	for i, c := range statusClasses {
		e.classes[i] = m.requests.With(name, c)
	}
	m.mu.Lock()
	m.endpoints[name] = e.latency
	m.mu.Unlock()
	return e
}

// Begin marks one request in flight.
func (e *EndpointMetrics) Begin() { e.inflight.Inc() }

// End records one finished request: it leaves the in-flight gauge,
// lands in the latency histogram (with traceID as the bucket exemplar;
// "" records plain), and counts under its status class.
func (e *EndpointMetrics) End(d time.Duration, status int, traceID string) {
	e.inflight.Dec()
	e.latency.ObserveExemplar(d.Seconds(), traceID)
	if i := status/100 - 1; i >= 0 && i < len(e.classes) {
		e.classes[i].Inc()
	}
}

// Exemplars returns the retained latency exemplars of every endpoint,
// ordered by endpoint name — the metric→trace links /v1/status
// surfaces. Nil-safe.
func (m *HTTPMetrics) Exemplars() map[string][]Exemplar {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.endpoints))
	hists := make(map[string]*Histogram, len(m.endpoints))
	for e, h := range m.endpoints {
		endpoints = append(endpoints, e)
		hists[e] = h
	}
	m.mu.Unlock()
	sort.Strings(endpoints)
	out := make(map[string][]Exemplar, len(endpoints))
	for _, e := range endpoints {
		if ex := hists[e].Exemplars(); len(ex) > 0 {
			out[e] = ex
		}
	}
	return out
}
