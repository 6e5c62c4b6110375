// Command drmperf is the repository benchmark. It starts drmserver as a
// separate process on loopback, offers one generated workload open loop
// over two keep-alive connections, checks every response and, after a
// kill -9, that the server's WAL holds every acknowledged operation. With
// -trace 1 it also replays the same inputs in process through each
// layer's public functions and reports per-layer metrics and a Chrome
// trace.
//
// Usage, from the repository root (run.sh builds everything first):
//
//	bash drmperf/run.sh --workload lifecycle-wide --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every line before it is a
// human-readable report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/logstore"
	"repro/internal/wal"
)

// setupRuns is how many times each run starts the server to measure
// setup_s; it reports their median.
const setupRuns = 15

// maxLateness is the generator's own schedule slip (p99 of actual minus
// intended hand-off) beyond which a run is invalid: its latencies would
// describe the load generator, not the server. A quiet 2-CPU host shows
// 0.1–4 ms.
const maxLateness = 25 * time.Millisecond

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drmperf:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measurement window in seconds")
		traceOn = flag.Int("trace", 0, "1 adds the in-process traced run and reports per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the drmserver and tracecheck binaries")
		work    = flag.String("work", ".bench_build/work", "scratch directory")
		traces  = flag.String("traces", ".bench_build/traces", "directory the traced run writes its Chrome trace to")
	)
	flag.Parse()
	s, ok := lookup(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		return errors.New("want -seconds > 0 and -trace 0 or 1")
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", s.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	window := time.Duration(*seconds * float64(time.Second))
	traceDir := ""
	if *traceOn == 1 {
		traceDir = *traces
	}
	rep, err := measure(s, *seed, window, *bin, dir, traceDir)
	if err != nil {
		return err
	}
	rep.print(os.Stdout, *traceOn == 1)
	if !rep.valid {
		return fmt.Errorf("invalid run: the load generator fell behind its schedule (lateness p99 %.3f ms > %v)",
			rep.latenessP99.Seconds()*1e3, maxLateness)
	}
	return json.NewEncoder(os.Stdout).Encode(rep.result(*traceOn == 1))
}

// report is everything one run measured.
type report struct {
	in *input
	// ops are the window's operations followed by the probe audits;
	// replies is index-aligned with them.
	ops     []op
	replies []reply
	e2e     map[string]metric
	layers  map[string]metric
	// errs holds the correctness failures, first few kept verbatim.
	errs        []string
	failed      int
	latenessP99 time.Duration
	valid       bool
	// shown lists the report-only figures this workload produces, in
	// print order; samples holds their sample counts.
	shown     []string
	samples   []string
	spans     map[string]*spanTotals
	tracePath string
}

func (r *report) fail(format string, args ...any) {
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// measure runs one workload end to end and, given a trace directory, in
// process.
func measure(s spec, seed int64, window time.Duration, bin, dir, traceDir string) (*report, error) {
	in := generate(s, seed, window)
	rep := &report{in: in, e2e: map[string]metric{}, layers: map[string]metric{}}
	corpusPath := filepath.Join(dir, "corpus.json")
	if err := os.WriteFile(corpusPath, in.corpus, 0o644); err != nil {
		return nil, err
	}
	pristine := filepath.Join(dir, "prior")
	if err := writePrior(pristine, in.prior); err != nil {
		return nil, err
	}

	// Setup: start the server setupRuns times on fresh copies of the prior
	// WAL; the last one serves the load.
	var setups []float64
	var srv *server
	var walDir string
	for i := 0; i < setupRuns; i++ {
		walDir = filepath.Join(dir, fmt.Sprintf("wal%d", i))
		if err := copyDir(pristine, walDir); err != nil {
			return nil, err
		}
		var took time.Duration
		var err error
		srv, took, err = startServer(bin, corpusPath, walDir, s.fsync, filepath.Join(dir, fmt.Sprintf("server%d.log", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			srv.kill()
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
		}
	}
	defer srv.kill()
	rep.e2e["setup_s"] = metric{median(setups), "s"}

	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	replies, err := drive(srv.addr, in.ops)
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	probe, err := drive(srv.addr, in.probe)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	srv.kill()
	rep.ops = append(in.ops[:len(in.ops):len(in.ops)], in.probe...)
	rep.replies = append(replies, probe...)

	// Per-response correctness and the durability gate.
	attempted, acked := tally{}, tally{}
	var issueLat, debitLat, auditLat, late []float64
	completed := 0
	for i := range rep.ops {
		o, r := &rep.ops[i], &rep.replies[i]
		late = append(late, float64(r.late))
		if o.kind != opAudit {
			attempted.add(logKind(o.kind), o.set, o.count)
		}
		if err := verify(in, o, r); err != nil {
			rep.failed++
			rep.fail("op %d (%s at %v): %v", i, o.kind, o.at, err)
			continue
		}
		if i < len(in.ops) {
			completed++
		}
		ms := r.latency.Seconds() * 1e3
		switch o.kind {
		case opIssue:
			issueLat = append(issueLat, ms)
		case opAudit:
			auditLat = append(auditLat, r.latency.Seconds())
		default:
			debitLat = append(debitLat, ms)
		}
		if o.kind != opAudit {
			acked.add(logKind(o.kind), o.set, o.count)
		}
	}
	rec, err := recovered(walDir, in.prior)
	if err != nil {
		rep.fail("%v", err)
	} else if err := checkDurable(acked, rec, attempted); err != nil {
		rep.fail("durability gate: %v", err)
	}

	rep.latenessP99 = time.Duration(percentile(late, 0.99))
	rep.valid = rep.latenessP99 <= maxLateness
	// Server CPU per completed window operation, the gated figure and the
	// base of drmserver.edge_us.
	cpuPerOp := math.NaN()
	if completed > 0 {
		cpuPerOp = float64(cpu1-cpu0) / float64(completed)
	}
	rep.e2e["server_cpu_us_per_op"] = metric{micros(cpuPerOp), "us"}
	rep.e2e["server_rss_peak_mib"] = metric{float64(rss) / (1 << 20), "MiB"}
	rep.e2e["failed_share"] = metric{float64(rep.failed) / float64(len(rep.ops)), "ratio"}
	for _, x := range []struct {
		name, unit string
		xs         []float64
		p          float64
	}{
		{"issue_p50_ms", "ms", issueLat, 0.5}, {"issue_p99_ms", "ms", issueLat, 0.99},
		{"debit_p50_ms", "ms", debitLat, 0.5}, {"debit_p99_ms", "ms", debitLat, 0.99},
		{"audit_p50_s", "s", auditLat, 0.5},
	} {
		if len(x.xs) == 0 {
			continue // a workload without debits has no debit figures
		}
		rep.e2e[x.name] = metric{percentile(x.xs, x.p), x.unit}
		rep.shown = append(rep.shown, x.name)
		rep.samples = append(rep.samples, fmt.Sprintf("%s: %d samples, %d beyond the percentile", x.name, len(x.xs), beyond(len(x.xs), x.p)))
	}
	rep.shown = append(rep.shown, "failed_share")
	rep.samples = append(rep.samples, fmt.Sprintf("lateness_p99: %d samples, %d beyond the percentile", len(late), beyond(len(late), 0.99)))

	if traceDir == "" {
		return rep, nil
	}
	nproc := runtime.NumCPU()
	lr, err := traced(context.Background(), in, pristine, filepath.Join(dir, "traced"), nproc)
	if err != nil {
		rep.fail("traced run: %v", err)
		return rep, nil
	}
	for k, v := range lr.metrics {
		rep.layers[k] = metric{v, layerUnits[k]}
	}
	// drmserver.edge_us: server CPU per operation minus what the engine
	// and the request decode cost per operation in process.
	rep.layers["drmserver.edge_us"] = metric{micros(cpuPerOp - float64(lr.engineCPU) - float64(lr.decodeCPU)), "us"}
	rep.layers["loadgen.lateness_p99_ms"] = metric{rep.latenessP99.Seconds() * 1e3, "ms"}
	rep.layers["input.records"] = metric{float64(len(in.prior)), "count"}
	rep.layers["input.distinct_sets"] = metric{float64(in.distinctSets), "count"}
	rep.layers["input.groups"] = metric{float64(len(in.groups)), "count"}
	rep.spans = lr.rec.selfTimes()

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	rep.tracePath = filepath.Join(traceDir, fmt.Sprintf("%s-%d.json", s.name, seed))
	if err := lr.rec.writeChrome(rep.tracePath); err != nil {
		return nil, err
	}
	out, err := exec.Command(filepath.Join(bin, "tracecheck"), rep.tracePath).CombinedOutput()
	if err != nil {
		rep.fail("tracecheck rejected %s: %v: %s", rep.tracePath, err, out)
	}
	return rep, nil
}

// layerUnits gives each per-layer metric its unit.
var layerUnits = map[string]string{
	"drmserver.decode_us":          "us",
	"drmserver.edge_us":            "us",
	"engine.belongs_to_us":         "us",
	"rtree.set_size_mean":          "count",
	"headroom.admit_us":            "us",
	"headroom.credit_us":           "us",
	"headroom.span_bits_max":       "count",
	"headroom.build_s":             "s",
	"wal.append_us":                "us",
	"wal.append_concurrent_us":     "us",
	"wal.syncs_per_append":         "count",
	"wal.sync_us":                  "us",
	"wal.bytes_per_append":         "bytes",
	"wal.recover_s":                "s",
	"wal.heap_bytes_per_record":    "bytes",
	"engine.issue_us":              "us",
	"engine.issue_concurrent_us":   "us",
	"engine.revoke_us":             "us",
	"engine.transfer_us":           "us",
	"engine.allocs_per_issue":      "count",
	"engine.alloc_bytes_per_issue": "bytes",
	"engine.warm_s":                "s",
	"logstore.foreach_s":           "s",
	"core.auditor_new_s":           "s",
	"core.audit_s":                 "s",
	"core.equations":               "count",
	"overlap.groups_us":            "us",
	"trace.overhead_share":         "ratio",
	"loadgen.lateness_p99_ms":      "ms",
	"input.records":                "count",
	"input.distinct_sets":          "count",
	"input.groups":                 "count",
}

// endToEnd lists the metrics an untraced run reports in its result line:
// the ones that hold still between runs on a shared 2-CPU VM. Latencies
// there moved with the host's load — whole 30 s runs at 2–4 times the
// quiet figure — so they are printed in the report, with their sample
// counts, but not gated; failed_share rides in the result line as
// attempted and failed.
var endToEnd = []string{"server_cpu_us_per_op", "server_rss_peak_mib", "setup_s"}

// writePrior creates the prior WAL with the public append path and no
// snapshot — the state a crash under default flags leaves.
func writePrior(dir string, prior []logstore.Record) error {
	st, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOS})
	if err != nil {
		return err
	}
	if len(prior) > 0 {
		if err := st.AppendBatch(prior); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

func (r *report) result(traced bool) result {
	res := result{
		Correct:   len(r.errs) == 0,
		Attempted: len(r.ops),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for k := range layerUnits {
			res.Metrics[k] = r.layers[k]
		}
	} else {
		for _, k := range endToEnd {
			res.Metrics[k] = r.e2e[k]
		}
	}
	return res
}

// print writes the human-readable report.
func (r *report) print(f *os.File, traced bool) {
	in := r.in
	fmt.Fprintf(f, "workload %s seed %d: fsync %s, rate %g ops/s on %d connections (revoke %d%%, transfer %d%%), %d audits %v apart after the window\n",
		in.spec.name, in.seed, in.spec.fsync, in.spec.rate, conns, in.spec.revokePct, in.spec.transferPct, probeAudits, auditGap)
	sizes := make([]int, len(in.groups))
	for i, g := range in.groups {
		sizes[i] = len(g)
	}
	fmt.Fprintf(f, "inputs: records %d, distinct sets %d, groups %d %v, core.equations %d, ops %d+%d, digest %016x\n",
		len(in.prior), in.distinctSets, len(in.groups), sizes, in.equations, len(in.ops), len(in.probe), in.digest)
	if v, ok := r.layers["headroom.span_bits_max"]; ok {
		fmt.Fprintf(f, "inputs: headroom.span_bits_max %g, wal.bytes_per_append %g\n",
			v.Value, r.layers["wal.bytes_per_append"].Value)
	}
	fmt.Fprintf(f, "generator lateness p99 %.3f ms (limit %v), valid %v\n", r.latenessP99.Seconds()*1e3, maxLateness, r.valid)
	for _, s := range r.samples {
		fmt.Fprintln(f, "samples:", s)
	}
	names := append(append([]string(nil), endToEnd...), r.shown...)
	for _, k := range names {
		m := r.e2e[k]
		fmt.Fprintf(f, "e2e %-22s %14.6f %s\n", k, m.Value, m.Unit)
	}
	if traced {
		keys := make([]string, 0, len(r.layers))
		for k := range r.layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := r.layers[k]
			fmt.Fprintf(f, "layer %-30s %14.6f %s\n", k, m.Value, m.Unit)
		}
		spans := make([]string, 0, len(r.spans))
		for k := range r.spans {
			spans = append(spans, k)
		}
		sort.Strings(spans)
		for _, k := range spans {
			t := r.spans[k]
			fmt.Fprintf(f, "span %-24s n=%-7d total %12.3f ms  self %12.3f ms\n",
				k, t.count, t.total.Seconds()*1e3, t.self.Seconds()*1e3)
		}
		if r.tracePath != "" {
			fmt.Fprintln(f, "trace:", r.tracePath)
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(f, "FAIL:", e)
	}
}
