package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// tiny shrinks a workload to a size that runs in well under a second,
// keeping its fsync policy and mix — the smoke-test
// variant.
func (s spec) tiny() spec {
	s.groups = []int{3, 2}
	s.prior = 300
	s.rate = 200
	s.traceOps = 100
	return s
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, s := range workloads {
		s := s.tiny()
		a, b := generate(s, 7, time.Second), generate(s, 7, time.Second)
		if a.digest != b.digest || !bytes.Equal(a.corpus, b.corpus) || len(a.ops) != len(b.ops) {
			t.Fatalf("%s: the same seed generated different inputs", s.name)
		}
		if c := generate(s, 8, time.Second); c.digest == a.digest {
			t.Fatalf("%s: seeds 7 and 8 generated identical inputs", s.name)
		}
		if a.equations != int64(1<<3-1+1<<2-1) || len(a.groups) != 2 {
			t.Fatalf("%s: groups %v, equations %d; want the planted [3 2] groups", s.name, a.groups, a.equations)
		}
		for _, o := range a.ops {
			if o.kind != opAudit && belongsTo(a.licenses, o.rect) != o.set {
				t.Fatalf("%s: op set %v does not match its rectangle", s.name, o.set)
			}
		}
	}
}

// TestSmoke runs every workload at tiny size against a freshly built
// drmserver, traced run included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts drmserver")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "repro/cmd/drmserver", "repro/cmd/tracecheck")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building drmserver: %v\n%s", err, out)
	}
	for _, s := range workloads {
		s := s.tiny()
		t.Run(s.name, func(t *testing.T) {
			traces := t.TempDir()
			rep, err := measure(s, 3, 500*time.Millisecond, bin, t.TempDir(), traces)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.errs) > 0 || rep.failed > 0 {
				t.Fatalf("failed %d, errors %v", rep.failed, rep.errs)
			}
			for _, traced := range []bool{false, true} {
				res := rep.result(traced)
				want := len(endToEnd)
				if traced {
					want = len(layerUnits)
				}
				if !res.Correct || len(res.Metrics) != want {
					t.Fatalf("traced=%v: correct=%v with %d metrics, want %d", traced, res.Correct, len(res.Metrics), want)
				}
				for k, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
						t.Errorf("metric %s = %v %q", k, m.Value, m.Unit)
					}
				}
			}
			want := []string{"issue_p50_ms", "issue_p99_ms", "audit_p50_s", "failed_share"}
			if s.revokePct+s.transferPct > 0 {
				want = append(want, "debit_p50_ms", "debit_p99_ms")
			}
			for _, k := range want {
				if m, ok := rep.e2e[k]; !ok || math.IsNaN(m.Value) {
					t.Errorf("report figure %s = %v", k, m)
				}
			}
			if filepath.Dir(rep.tracePath) != traces {
				t.Fatalf("trace written to %q, want it in %q", rep.tracePath, traces)
			}
			if _, err := os.Stat(rep.tracePath); err != nil {
				t.Fatal(err)
			}
		})
	}
}
