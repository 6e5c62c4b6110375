package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/obs"
)

// promSample matches one Prometheus text-format sample line; the label
// block is greedy because label values may themselves contain '}'.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (NaN|[+-]?Inf|[+-]?[0-9][^ ]*)$`)

// scrape fetches url and parses the exposition into series → value,
// failing the test on any line that is neither a comment nor a valid
// sample.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	return parseSeries(t, resp.Body)
}

// registrySeries parses reg's Prometheus exposition, without a server.
func registrySeries(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return parseSeries(t, &buf)
}

// parseSeries parses a Prometheus text exposition into series → value.
func parseSeries(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint covers the acceptance criterion: after a couple of
// issuances the exposition parses, and request counts, validate-equation
// counts, and the latency histogram are all nonzero.
func TestMetricsEndpoint(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	req := issueRequest{Values: usageValues(ex), Count: 10}
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
			t.Fatalf("issue status = %d", code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/audit", nil); code != http.StatusOK {
		t.Fatalf("audit status = %d", code)
	}

	series := scrape(t, ts.URL+"/metrics")
	if got := series[`drm_http_requests_total{endpoint="POST /v1/issue",class="2xx"}`]; got != 3 {
		t.Errorf("issue request count = %v, want 3", got)
	}
	if got := series[`drm_http_request_seconds_count{endpoint="POST /v1/issue"}`]; got != 3 {
		t.Errorf("issue latency observations = %v, want 3", got)
	}
	// Online mode runs Headroom per issuance and the audit runs the full
	// sharded validation, so equations-checked must have moved.
	if got := series[`drm_validate_equations_checked_total`]; got <= 0 {
		t.Errorf("equations checked = %v, want > 0", got)
	}
	if got := series[`drm_issue_total`]; got != 3 {
		t.Errorf("issued counter = %v, want 3", got)
	}
	if got := series[`drm_wal_appends_total`]; got != 3 {
		t.Errorf("wal appends = %v, want 3", got)
	}
	if got := series[`drm_audit_runs_total`]; got != 1 {
		t.Errorf("audit runs = %v, want 1", got)
	}
	if got := series[`drm_http_inflight`]; got != 0 {
		t.Errorf("inflight after drain = %v, want 0", got)
	}
}

// TestMiddlewareOneObservationPerRequest pins the middleware contract:
// each request adds exactly one latency observation and one status-class
// increment for its endpoint, and the in-flight gauge returns to zero.
func TestMiddlewareOneObservationPerRequest(t *testing.T) {
	o := newServerObs(func() error { return nil })
	okHandler := o.observed("/v1/ok", nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok")) // implicit 200
	}))
	failHandler := o.observed("/v1/fail", nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusConflict)
	}))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		okHandler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ok", nil))
	}
	rec := httptest.NewRecorder()
	failHandler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/fail", nil))

	series := registrySeries(t, o.reg)
	if got := series[`drm_http_requests_total{endpoint="/v1/ok",class="2xx"}`]; got != 3 {
		t.Errorf("ok 2xx count = %v, want 3", got)
	}
	if got := series[`drm_http_requests_total{endpoint="/v1/fail",class="4xx"}`]; got != 1 {
		t.Errorf("fail 4xx count = %v, want 1", got)
	}
	if got := series[`drm_http_request_seconds_count{endpoint="/v1/ok"}`]; got != 3 {
		t.Errorf("ok latency observations = %v, want 3", got)
	}
	if got := series[`drm_http_request_seconds_count{endpoint="/v1/fail"}`]; got != 1 {
		t.Errorf("fail latency observations = %v, want 1", got)
	}
	if got := series[`drm_http_inflight`]; got != 0 {
		t.Errorf("in-flight after completion = %v, want 0", got)
	}
}

// TestMiddlewareInflight observes the gauge from inside a handler.
func TestMiddlewareInflight(t *testing.T) {
	o := newServerObs(func() error { return nil })
	var inside bytes.Buffer
	h := o.observed("/v1/x", nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := o.reg.WritePrometheus(&inside); err != nil {
			t.Error(err)
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/x", nil))
	if seen := parseSeries(t, &inside)[`drm_http_inflight`]; seen != 1 {
		t.Errorf("in-flight inside handler = %v, want 1", seen)
	}
}

// TestCorpusRoutesObserveOncePerRequest: every corpus route, in both
// modes, adds exactly one request to its endpoint's status-class
// counters, to its endpoint SLO window, and to its corpus's entry
// window.
func TestCorpusRoutesObserveOncePerRequest(t *testing.T) {
	single, ex := newTestServer(t, engine.ModeOnline)
	catalog, _ := newCatalogTestServer(t)
	// Issue 2, revoke 1, then transfer the 1 still outstanding.
	issue := issueRequest{Values: usageValues(ex), Count: 2}
	debit := lifecycleRequest{Values: usageValues(ex), Count: 1}
	routes := []struct {
		method, name string
		body         any
	}{
		{"GET", "corpus", nil},
		{"GET", "groups", nil},
		{"POST", "issue", issue},
		{"POST", "revoke", debit},
		{"POST", "transfer", debit},
		{"POST", "expire", expireRequest{}},
		{"GET", "audit", nil},
		{"GET", "stats", nil},
		{"GET", "headroom", nil},
		{"POST", "snapshot", nil},
	}
	for _, mode := range []struct {
		name, url, path, pattern, entry string
	}{
		{"single-corpus", single.URL, "/v1/", "/v1/", "corpus"},
		{"catalog", catalog.URL, "/v1/c/K/play/", "/v1/c/{content}/{perm}/", "K/play"},
	} {
		for _, rt := range routes {
			endpoint := rt.method + " " + mode.pattern + rt.name
			before := scrape(t, mode.url+"/metrics")
			var code int
			if rt.method == "POST" {
				code = postJSON(t, mode.url+mode.path+rt.name, rt.body, nil)
			} else {
				code = getJSON(t, mode.url+mode.path+rt.name, nil)
			}
			if code != http.StatusOK {
				t.Fatalf("%s: %s status = %d", mode.name, endpoint, code)
			}
			after := scrape(t, mode.url+"/metrics")
			delta := func(series string) float64 { return after[series] - before[series] }
			var requests float64
			for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
				requests += delta(`drm_http_requests_total{endpoint="` + endpoint + `",class="` + class + `"}`)
			}
			if requests != 1 {
				t.Errorf("%s: %s added %v to drm_http_requests_total, want 1", mode.name, endpoint, requests)
			}
			if got := delta(`drm_slo_window_requests{scope="endpoint",name="` + endpoint + `"}`); got != 1 {
				t.Errorf("%s: %s added %v to its endpoint window, want 1", mode.name, endpoint, got)
			}
			if got := delta(`drm_slo_window_requests{scope="entry",name="` + mode.entry + `"}`); got != 1 {
				t.Errorf("%s: %s added %v to entry window %s, want 1", mode.name, endpoint, got, mode.entry)
			}
		}
	}
}

// TestFirstScrapeSamplesRuntime: /metrics samples the runtime gauges
// itself, so even the first scrape of a fresh server reports them.
func TestFirstScrapeSamplesRuntime(t *testing.T) {
	ts, _ := newTestServer(t, engine.ModeOnline)
	if got := scrape(t, ts.URL+"/metrics")["drm_runtime_goroutines"]; got <= 0 {
		t.Fatalf("drm_runtime_goroutines on first scrape = %v, want > 0", got)
	}
}

// TestMiddlewareStatusClasses checks the middleware buckets non-2xx
// responses correctly and records exactly one observation per request.
func TestMiddlewareStatusClasses(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	// Two OK, one 409 (headroom exhausted), one 400 (broken JSON).
	req := issueRequest{Values: usageValues(ex), Count: 3000}
	if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
		t.Fatalf("drain status = %d", code)
	}
	req.Count = 1
	if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusConflict {
		t.Fatalf("conflict status = %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/issue", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	series := scrape(t, ts.URL+"/metrics")
	if got := series[`drm_http_requests_total{endpoint="POST /v1/issue",class="2xx"}`]; got != 1 {
		t.Errorf("2xx = %v, want 1", got)
	}
	if got := series[`drm_http_requests_total{endpoint="POST /v1/issue",class="4xx"}`]; got != 2 {
		t.Errorf("4xx = %v, want 2", got)
	}
	if got := series[`drm_http_request_seconds_count{endpoint="POST /v1/issue"}`]; got != 3 {
		t.Errorf("latency observations = %v, want one per request, got %v", got, got)
	}
}

// TestHealthzDrainAware pins satellite 1: healthz flips to 503 the moment
// the drain flag is set, and readyz reports the loaded corpus.
func TestHealthzDrainAware(t *testing.T) {
	ex := license.NewExample1()
	store := openTestLog(t)
	srv, err := newServer(ex.Corpus, store, engine.ModeOnline, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	var body map[string]string
	if code := getJSON(t, ts.URL+"/v1/healthz", &body); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz before drain = %d %v", code, body)
	}
	if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", code, body)
	}
	srv.obs.draining.Store(true)
	if code := getJSON(t, ts.URL+"/v1/healthz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", code)
	}
	if body["status"] != "draining" {
		t.Errorf("drain body = %v", body)
	}
	// Readiness is about loadedness, not drain state.
	if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusOK {
		t.Errorf("readyz during drain = %d, want 200", code)
	}
}

// TestReadyzCatalog checks readiness in catalog mode.
func TestReadyzCatalog(t *testing.T) {
	ts, _ := newCatalogTestServer(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", code, body)
	}
}

// TestIssueBodyLimit pins satellite 2: an oversized issue, revoke,
// transfer or expire body gets a structured 413, and the limit does not
// bite normal requests.
func TestIssueBodyLimit(t *testing.T) {
	old := maxIssueBody
	maxIssueBody = 256
	t.Cleanup(func() { maxIssueBody = old })

	ts, ex := newTestServer(t, engine.ModeOnline)
	// Well-formed JSON that forces the decoder past the cap before any
	// syntax error can preempt the MaxBytesError.
	big := []byte(`{"kind": "` + strings.Repeat("x", 4096) + `"}`)
	for _, path := range []string{"/v1/issue", "/v1/revoke", "/v1/transfer", "/v1/expire"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: 413 body not JSON: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413", path, resp.StatusCode)
		}
		if !strings.Contains(e.Error, "256") {
			t.Errorf("%s: 413 error %q does not state the limit", path, e.Error)
		}
	}
	// A small request still fits under the lowered cap.
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: usageValues(ex), Count: 5}, nil); code != http.StatusOK {
		t.Errorf("small request status = %d", code)
	}
}

// TestConcurrentIssueMetricsAudit is satellite 3's race hammer: catalog
// mode, concurrent issuance, metric scrapes, and audits. Run with -race.
func TestConcurrentIssueMetricsAudit(t *testing.T) {
	ts, ex := newCatalogTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := issueRequest{Values: usageValues(ex), Count: 1}
			for j := 0; j < 10; j++ {
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/c/K/play/issue", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for _, path := range []string{"/metrics", "/v1/c/K/play/audit", "/v1/healthz"} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", p, resp.StatusCode)
					}
				}
			}(path)
		}
	}
	wg.Wait()

	series := scrape(t, ts.URL+"/metrics")
	if got := series[`drm_http_requests_total{endpoint="POST /v1/c/{content}/{perm}/issue",class="2xx"}`]; got != 40 {
		t.Errorf("concurrent issue count = %v, want 40", got)
	}
}
