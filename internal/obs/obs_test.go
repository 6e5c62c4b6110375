package obs

import (
	"bufio"
	"fmt"
	"log/slog"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only grow
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := reg.Gauge("g", "a gauge")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
	fg := reg.FloatGauge("fg", "a float gauge")
	fg.Set(3.1)
	if got := fg.Value(); got != 3.1 {
		t.Errorf("float gauge = %v, want 3.1", got)
	}
	// Re-registration returns the same handle.
	if reg.Counter("c_total", "a counter") != c {
		t.Error("re-registered counter is a different handle")
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var fg *FloatGauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	fg.Set(2)
	h.Observe(0.1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics report nonzero values")
	}
	var cv *CounterVec
	var hv *HistogramVec
	if cv.With("x") != nil || hv.With("x") != nil {
		t.Error("nil vec With returned non-nil metric")
	}
}

// TestNilHooksAllocationFree is the hook contract: recording on nil
// metrics — the uninstrumented configuration — must not allocate.
func TestNilHooksAllocationFree(t *testing.T) {
	var c *Counter
	var h *Histogram
	var g *Gauge
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(7)
		g.Inc()
		h.Observe(1e-3)
	})
	if allocs != 0 {
		t.Errorf("nil hooks allocate %v per record, want 0", allocs)
	}
}

// TestLiveHooksAllocationFree: instrumented recording is atomic-only.
func TestLiveHooksAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h_seconds", "", nil)
	g := reg.Gauge("g", "")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(7)
		g.Inc()
		h.Observe(1e-3)
	})
	if allocs != 0 {
		t.Errorf("live hooks allocate %v per record, want 0", allocs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got < 5.6 || got > 5.61 {
		t.Errorf("sum = %v, want ≈5.605", got)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, out.String())
		}
	}
}

func TestVecSeries(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("req_total", "requests", "endpoint", "class")
	v.With("/a", "2xx").Add(3)
	v.With("/a", "5xx").Inc()
	v.With("/b", "2xx").Inc()
	if v.With("/a", "2xx").Value() != 3 {
		t.Error("vec series not stable across With calls")
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`req_total{endpoint="/a",class="2xx"} 3`,
		`req_total{endpoint="/a",class="5xx"} 1`,
		`req_total{endpoint="/b",class="2xx"} 1`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, out.String())
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h_seconds", "", nil)
	v := reg.CounterVec("v_total", "", "l")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-6)
				v.With(fmt.Sprint(i % 2)).Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("counter = %d, histogram count = %d, want 8000", c.Value(), h.Count())
	}
	if v.With("0").Value()+v.With("1").Value() != 8000 {
		t.Error("vec lost increments")
	}
}

// promLine matches a Prometheus text-format sample line:
// name{label="v",...} value
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (NaN|[+-]?Inf|[+-]?[0-9][^ ]*)$`)

// CheckPrometheusText validates that every line of a text exposition is
// either a HELP/TYPE comment or a well-formed sample whose value parses,
// and that every sample's family was TYPE-declared first. It returns the
// number of sample lines. Shared by the drmserver /metrics test via the
// same logic re-implemented there; kept here to pin the writer.
func checkPrometheusText(t *testing.T, text string) int {
	t.Helper()
	typed := map[string]string{}
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("unknown metric type in %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(strings.TrimPrefix(m[3], "+"), 64); err != nil && m[3] != "+Inf" {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
		name := m[1]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suffix); b != name && typed[b] == "histogram" {
				base = b
			}
		}
		if _, ok := typed[base]; !ok {
			t.Errorf("sample %q precedes its TYPE declaration", line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("drm_test_total", "a counter").Add(3)
	reg.Gauge("drm_test_inflight", "a gauge").Set(2)
	reg.FloatGauge("drm_test_gain", "eq 3").Set(3.1)
	reg.Histogram("drm_test_seconds", "latency", nil).Observe(0.004)
	v := reg.CounterVec("drm_test_req_total", `with "quotes" and \slashes`, "endpoint")
	v.With(`/v1/c/{content}/issue`).Inc()
	hv := reg.HistogramVec("drm_test_lat_seconds", "labelled latency", nil, "endpoint")
	hv.With("/v1/audit").Observe(0.2)

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if n := checkPrometheusText(t, out.String()); n < 10 {
		t.Errorf("only %d sample lines:\n%s", n, out.String())
	}
}

func TestNewLogger(t *testing.T) {
	var buf strings.Builder
	h, err := NewLogHandler("json", "info", &buf)
	if err != nil {
		t.Fatal(err)
	}
	slog.New(h).Info("hello", "k", 1)
	if !strings.Contains(buf.String(), `"msg":"hello"`) {
		t.Errorf("json log output = %q", buf.String())
	}
	buf.Reset()
	h, err = NewLogHandler("text", "info", &buf)
	if err != nil {
		t.Fatal(err)
	}
	slog.New(h).Info("hello")
	if !strings.Contains(buf.String(), "msg=hello") {
		t.Errorf("text log output = %q", buf.String())
	}
	if _, err := NewLogHandler("yaml", "info", &buf); err == nil {
		t.Error("unknown format accepted")
	}
}
