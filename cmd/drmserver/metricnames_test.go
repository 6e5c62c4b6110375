package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// metricRef matches a drm_* metric reference in prose, code or shell:
// plain names, brace expansions (drm_x_{a,b}_total), wildcard families
// (drm_slo_*), and file names (drm_test.go), which are skipped.
var metricRef = regexp.MustCompile(`drm_[a-z0-9_]*(?:\{[a-z0-9_,]+\}[a-z0-9_]*)?\*?(?:\.go)?`)

// expandRef turns one metricRef match into the family names or
// prefixes it stands for; prefix reports a wildcard or a trailing '_'.
func expandRef(ref string) (names []string, prefix bool) {
	if strings.HasSuffix(ref, ".go") {
		return nil, false
	}
	ref = strings.TrimSuffix(ref, "*")
	prefix = strings.HasSuffix(ref, "_")
	open := strings.IndexByte(ref, '{')
	if open < 0 {
		return []string{ref}, prefix
	}
	end := strings.IndexByte(ref, '}')
	for _, alt := range strings.Split(ref[open+1:end], ",") {
		names = append(names, ref[:open]+alt+ref[end+1:])
	}
	return names, prefix
}

// scrapeFamilies returns the metric family names a /metrics scrape
// declares in its # TYPE lines.
func scrapeFamilies(t *testing.T, url string) map[string]bool {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams[f[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// TestDocumentedMetricsExist pins metric names across every surface an
// operator reads them from: each drm_* family named in README.md,
// DESIGN.md, the CI workflow's greps, or the status pane (its source and
// its live text rendering) must be declared by a live /metrics scrape.
// A doc naming a renamed or deleted family fails here.
func TestDocumentedMetricsExist(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	if code := postJSON(t, ts.URL+"/v1/issue", issueRequest{Values: usageValues(ex), Count: 5}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	// A labelled family is exposed only once it has a series; give the
	// proxy-error family (the docs name it) one at zero.
	cluster.M.RouterProxyErrors.With("none")
	fams := scrapeFamilies(t, ts.URL+"/metrics")
	if len(fams) == 0 {
		t.Fatal("scrape declared no metric families")
	}

	sources := map[string]string{}
	for _, path := range []string{"../../README.md", "../../DESIGN.md", "../../.github/workflows/ci.yml", "status.go"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources[path] = string(b)
	}
	resp, err := http.Get(ts.URL + "/v1/status?format=text")
	if err != nil {
		t.Fatal(err)
	}
	pane, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sources["/v1/status?format=text"] = string(pane)

	known := func(name string, prefix bool) bool {
		if prefix {
			for f := range fams {
				if strings.HasPrefix(f, name) {
					return true
				}
			}
			return false
		}
		if fams[name] {
			return true
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] {
				return true
			}
		}
		return false
	}
	checked := 0
	for src, text := range sources {
		for _, ref := range metricRef.FindAllString(text, -1) {
			names, prefix := expandRef(ref)
			for _, name := range names {
				checked++
				if !known(name, prefix) {
					t.Errorf("%s names %q (from %q), which /metrics does not declare", src, name, ref)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no metric references found; the sources moved?")
	}
}
