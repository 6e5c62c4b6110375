package obs

import (
	"bufio"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (NaN|[+-]?Inf|[+-]?[0-9][^ ]*)`)

// labelPair matches one escaped label inside a label block.
var labelPair = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)

// unescapeLabel inverts the exposition escaping (\\, \", \n).
func unescapeLabel(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// TestLabelEscapingRoundTrip pins exposition hygiene: label values
// holding backslashes, quotes, and newlines must escape to a parseable
// single-line sample and unescape back to the original value.
func TestLabelEscapingRoundTrip(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("weird_total", `help with "quotes"`+"\nand a newline", "name")
	nasty := []string{
		`back\slash`,
		`quo"te`,
		"new\nline",
		`all\three" here` + "\n.",
	}
	for i, val := range nasty {
		v.With(val).Add(int64(i + 1))
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP") {
			if strings.Count(line, "\n") > 0 {
				t.Fatalf("HELP line contains raw newline: %q", line)
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		pairs := labelPair.FindAllStringSubmatch(m[2], -1)
		if len(pairs) != 1 {
			t.Fatalf("label block %q: %d pairs, want 1", m[2], len(pairs))
		}
		val, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("value in %q: %v", line, err)
		}
		got[unescapeLabel(pairs[0][2])] = val
	}
	for i, val := range nasty {
		if got[val] != float64(i+1) {
			t.Errorf("round-trip lost series for %q: got %v, want %d (parsed: %v)", val, got[val], i+1, got)
		}
	}
}

// TestOpenMetricsExposition checks the OpenMetrics variant: counter
// metadata without the _total suffix, histogram exemplars attached to
// bucket lines, and the mandatory # EOF terminator.
func TestOpenMetricsExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "requests").Add(3)
	h := reg.Histogram("lat_seconds", "latency", []float64{0.01, 1})
	h.ObserveExemplar(0.005, "0123456789abcdef")
	h.ObserveExemplar(0.5, "fedcba9876543210")
	var out strings.Builder
	if err := reg.WriteOpenMetrics(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasSuffix(s, "# EOF\n") {
		t.Errorf("exposition does not end with # EOF:\n%s", s)
	}
	for _, want := range []string{
		"# TYPE reqs counter",
		"reqs_total 3",
		`lat_seconds_bucket{le="0.01"} 1 # {trace_id="0123456789abcdef"} 0.005`,
		`lat_seconds_bucket{le="1"} 2 # {trace_id="fedcba9876543210"} 0.5`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("OpenMetrics exposition missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "# TYPE reqs_total") {
		t.Error("counter TYPE line kept the _total suffix")
	}
}

// TestHandlerContentNegotiation: default scrapes stay Prometheus text
// 0.0.4; an OpenMetrics Accept header or ?format=openmetrics switches.
func TestHandlerContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "c").Inc()
	h := reg.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("default content type = %q", ct)
	}
	if strings.Contains(rec.Body.String(), "# EOF") {
		t.Error("default exposition carries the OpenMetrics terminator")
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("negotiated content type = %q", ct)
	}
	if !strings.HasSuffix(rec.Body.String(), "# EOF\n") {
		t.Error("OpenMetrics exposition missing # EOF")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=openmetrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("?format=openmetrics content type = %q", ct)
	}
}

// TestExemplars pins the exemplar contract: placement in the bucket the
// value lands in, last-write-wins per bucket, +Inf overflow, and the
// empty-trace fast path staying allocation-free.
func TestExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{0.01, 1})
	h.ObserveExemplar(0.002, "aaa")
	h.ObserveExemplar(0.003, "bbb") // same bucket: replaces aaa
	h.ObserveExemplar(50, "ccc")    // overflow bucket
	h.ObserveExemplar(0.5, "")      // untraced: observation only

	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v, want 2 buckets", ex)
	}
	if ex[0].TraceID != "bbb" || ex[0].LE != 0.01 || ex[0].Value != 0.003 {
		t.Errorf("bucket exemplar = %+v, want bbb@0.003 le=0.01", ex[0])
	}
	if ex[1].TraceID != "ccc" || !isInf(ex[1].LE) {
		t.Errorf("overflow exemplar = %+v, want ccc at le=+Inf", ex[1])
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4 (empty trace still observes)", h.Count())
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveExemplar(0.002, "")
	}); allocs != 0 {
		t.Errorf("untraced ObserveExemplar allocates %v per op, want 0", allocs)
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, "x")
	if nilH.Exemplars() != nil {
		t.Error("nil histogram exemplars not nil")
	}
}

func isInf(v float64) bool { return v > 1e300 }

// TestRuntimeSample sanity-checks the runtime collector: live process
// numbers and gauge materialisation.
func TestRuntimeSample(t *testing.T) {
	reg := NewRegistry()
	rt := NewRuntime(reg, func() int64 { return 7 })
	s := rt.Sample()
	if s.Goroutines < 1 {
		t.Errorf("goroutines = %d", s.Goroutines)
	}
	if s.HeapAllocBytes <= 0 || s.HeapSysBytes < s.HeapAllocBytes {
		t.Errorf("heap sample = %+v", s)
	}
	if s.WALFsyncBacklog != 7 {
		t.Errorf("wal backlog = %d, want 7", s.WALFsyncBacklog)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"drm_runtime_goroutines", "drm_runtime_heap_alloc_bytes", "drm_wal_fsync_backlog 7"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
