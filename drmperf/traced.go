package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geometry"
	"repro/internal/headroom"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/wal"
)

// The traced run replays a workload's generated inputs in process through
// the public functions of each layer, timing every call from the
// benchmark's own code. It never runs inside the end-to-end measurement.

// span is one timed interval of the traced run.
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     spanRef
	op         int // request index in the generated stream, or -1
}

// spanRef locates a span: its caller lane and index within that lane.
type spanRef struct{ lane, idx int32 }

var noSpan = spanRef{-1, -1}

// recorder keeps spans in memory, one buffer per caller lane so
// concurrent callers never share one. A nil recorder records nothing.
type recorder struct {
	t0    time.Time
	lanes [][]span
}

func newRecorder(lanes int) *recorder {
	return &recorder{t0: time.Now(), lanes: make([][]span, lanes)}
}

func (r *recorder) begin(lane int, name string, parent spanRef, op int) spanRef {
	if r == nil {
		return noSpan
	}
	r.lanes[lane] = append(r.lanes[lane], span{name: name, start: time.Since(r.t0), end: -1, parent: parent, op: op})
	return spanRef{int32(lane), int32(len(r.lanes[lane]) - 1)}
}

func (r *recorder) end(ref spanRef) {
	if r == nil || ref.idx < 0 {
		return
	}
	r.lanes[ref.lane][ref.idx].end = time.Since(r.t0)
}

// timed runs fn inside a span and returns its wall time.
func (r *recorder) timed(lane int, name string, parent spanRef, op int, fn func()) time.Duration {
	ref := r.begin(lane, name, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(ref)
	return d
}

// selfTimes sums, per span name, the count, total duration and self time:
// a span's duration minus the part of it that its children cover.
func (r *recorder) selfTimes() map[string]*spanTotals {
	children := make(map[spanRef][][2]time.Duration)
	for _, lane := range r.lanes {
		for _, s := range lane {
			if s.parent != noSpan {
				children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
			}
		}
	}
	out := make(map[string]*spanTotals)
	for l, lane := range r.lanes {
		for i, s := range lane {
			t := out[s.name]
			if t == nil {
				t = &spanTotals{}
				out[s.name] = t
			}
			d := s.end - s.start
			t.count++
			t.total += d
			t.self += d - covered(children[spanRef{int32(l), int32(i)}], s.start, s.end)
		}
	}
	return out
}

type spanTotals struct {
	count       int
	total, self time.Duration
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// writeChrome writes the spans as a Chrome Trace Event document: one
// complete ("X") event per span, one thread lane per caller.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"drmperf traced run"}}`)
	for l, lane := range r.lanes {
		fmt.Fprintf(w, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"caller %d"}}`, l, l)
		for _, s := range lane {
			fmt.Fprintf(w, `,{"name":%q,"cat":"drmperf","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
				s.name, l, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// segCounter counts what the WAL writes and syncs through the
// wal.Options.OpenSegFile hook.
type segCounter struct {
	bytes, syncs, syncNanos atomic.Int64
}

func (c *segCounter) reset() {
	c.bytes.Store(0)
	c.syncs.Store(0)
	c.syncNanos.Store(0)
}

func (c *segCounter) open(path string, flag int) (wal.SegFile, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &countedFile{f: f, c: c}, nil
}

type countedFile struct {
	f *os.File
	c *segCounter
}

func (f *countedFile) Write(b []byte) (int, error) {
	n, err := f.f.Write(b)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f *countedFile) Sync() error {
	start := time.Now()
	err := f.f.Sync()
	f.c.syncNanos.Add(int64(time.Since(start)))
	f.c.syncs.Add(1)
	return err
}

func (f *countedFile) Close() error { return f.f.Close() }

// wireRequest is the issue/revoke/transfer body as drmserver decodes it.
type wireRequest struct {
	Values []license.ValueDoc `json:"values"`
	Count  int64              `json:"count"`
	Kind   string             `json:"kind"`
}

// processCPU returns the user+system CPU this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func micros(d float64) float64 { return d / float64(time.Microsecond) }

// medianMicros is the median of call durations in microseconds (0 when
// the layer saw no calls).
func medianMicros(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return micros(median(xs))
}

// layerRun carries the traced run's shared state.
type layerRun struct {
	in       *input
	corpus   *license.Corpus
	fsync    wal.FsyncPolicy
	work     string
	pristine string
	rec      *recorder
	root     spanRef
	nproc    int
	// main holds the indices of the stream operations the traced run
	// replays, in stream order.
	main    []int
	metrics map[string]float64
	// Per-operation in-process CPU, for drmserver.edge_us.
	engineCPU, decodeCPU time.Duration
}

// traced runs every layer phase over the workload's inputs and returns the
// per-layer metrics. pristine is the prior WAL, copied before each use.
func traced(ctx context.Context, in *input, pristine, work string, nproc int) (*layerRun, error) {
	corpus, err := license.DecodeCorpus(bytes.NewReader(in.corpus))
	if err != nil {
		return nil, err
	}
	fsync, _, err := wal.ParseFsync(in.spec.fsync)
	if err != nil {
		return nil, err
	}
	lr := &layerRun{
		in: in, corpus: corpus, fsync: fsync, work: work, pristine: pristine,
		rec: newRecorder(nproc + 1), nproc: nproc, metrics: map[string]float64{},
	}
	for i := range in.ops[:min(len(in.ops), in.spec.traceOps)] {
		lr.main = append(lr.main, i)
	}
	lr.root = lr.rec.begin(0, "traced-run", noSpan, -1)
	defer lr.rec.end(lr.root)
	steps := []func(context.Context) error{
		lr.recovery, lr.overlapGroups, lr.replayOverhead, lr.audit, lr.engineSerial,
		lr.engineConcurrent, lr.walAppends,
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

// copyPrior copies the prior WAL into a fresh directory and returns it.
func (lr *layerRun) copyPrior(name string) (string, error) {
	dir := filepath.Join(lr.work, name)
	return dir, copyDir(lr.pristine, dir)
}

// openCopy opens a fresh copy of the prior WAL under the workload's fsync
// policy.
func (lr *layerRun) openCopy(name string) (*wal.Store, error) {
	dir, err := lr.copyPrior(name)
	if err != nil {
		return nil, err
	}
	return wal.Open(dir, wal.Options{Fsync: lr.fsync})
}

// distributor builds an online engine over store, as drmserver does, and
// returns the time WarmHeadroom took.
func (lr *layerRun) distributor(ctx context.Context, store logstore.Store) (*engine.Distributor, time.Duration, error) {
	d := engine.NewDistributor("drmperf", lr.corpus.Schema(), engine.ModeOnline, store)
	for _, l := range lr.corpus.Licenses() {
		cp := *l
		if _, err := d.AddRedistribution(&cp); err != nil {
			return nil, 0, err
		}
	}
	var err error
	took := lr.rec.timed(0, "engine.warm", lr.root, -1, func() { err = d.WarmHeadroom(ctx) })
	return d, took, err
}

// recovery times WAL recovery, a full replay and a headroom build over
// the prior log.
func (lr *layerRun) recovery(ctx context.Context) error {
	dir, err := lr.copyPrior("recover")
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var st *wal.Store
	took := lr.rec.timed(0, "wal.recover", lr.root, -1, func() { st, err = wal.Open(dir, wal.Options{Fsync: lr.fsync}) })
	if err != nil {
		return err
	}
	defer st.Close()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	lr.metrics["wal.recover_s"] = took.Seconds()
	if n := len(lr.in.prior); n > 0 {
		lr.metrics["wal.heap_bytes_per_record"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(n)
	}
	took = lr.rec.timed(0, "logstore.foreach", lr.root, -1, func() {
		err = st.ForEach(func(logstore.Record) error { return nil })
	})
	if err != nil {
		return err
	}
	lr.metrics["logstore.foreach_s"] = took.Seconds()
	grouping := overlap.GroupsOf(lr.corpus)
	took = lr.rec.timed(0, "headroom.build", lr.root, -1, func() {
		_, err = headroom.Build(ctx, grouping, lr.corpus.Aggregates(), st)
	})
	if err != nil {
		return err
	}
	lr.metrics["headroom.build_s"] = took.Seconds()
	_, took, err = lr.distributor(ctx, st)
	lr.metrics["engine.warm_s"] = took.Seconds()
	return err
}

// overlapGroups times the overlap grouping of the corpus.
func (lr *layerRun) overlapGroups(context.Context) error {
	const calls = 200
	phase := lr.rec.begin(0, "overlap", lr.root, -1)
	ds := make([]time.Duration, calls)
	var gr overlap.Grouping
	for i := range ds {
		ds[i] = lr.rec.timed(0, "overlap.groups", phase, -1, func() { gr = overlap.GroupsOf(lr.corpus) })
	}
	lr.rec.end(phase)
	if gr.NumGroups() != len(lr.in.groups) {
		return fmt.Errorf("overlap.GroupsOf found %d groups, the corpus has %d", gr.NumGroups(), len(lr.in.groups))
	}
	lr.metrics["overlap.groups_us"] = medianMicros(ds)
	return nil
}

// replayOverhead replays the stream through the edge layers — decode,
// belongs-to, headroom admission or credit — five times untraced and five
// times traced, alternating, each on a fresh cache. It reports the last
// traced pass's layer times and the recording overhead: the difference of
// the two sides' median pass times.
func (lr *layerRun) replayOverhead(ctx context.Context) error {
	st, err := lr.openCopy("replay")
	if err != nil {
		return err
	}
	defer st.Close()
	d, _, err := lr.distributor(ctx, st)
	if err != nil {
		return err
	}
	grouping := overlap.GroupsOf(lr.corpus)
	var off, on []float64
	var kept *replayTimes
	for pass := 0; pass < 10; pass++ {
		cache, err := headroom.Build(ctx, grouping, lr.corpus.Aggregates(), st)
		if err != nil {
			return err
		}
		rec := lr.rec
		if pass%2 == 0 {
			rec = nil
		}
		runtime.GC()
		start := time.Now()
		rt, err := lr.replay(ctx, rec, d, cache)
		if err != nil {
			return err
		}
		if rec == nil {
			off = append(off, float64(time.Since(start)))
		} else {
			on = append(on, float64(time.Since(start)))
			kept = rt
		}
	}
	lr.metrics["trace.overhead_share"] = (median(on) - median(off)) / median(off)
	lr.metrics["drmserver.decode_us"] = medianMicros(kept.decode)
	lr.metrics["engine.belongs_to_us"] = medianMicros(kept.belongs)
	lr.metrics["rtree.set_size_mean"] = kept.setSizes / float64(len(kept.belongs))
	lr.metrics["headroom.admit_us"] = medianMicros(kept.admit)
	lr.metrics["headroom.credit_us"] = medianMicros(kept.credit)
	lr.metrics["headroom.span_bits_max"] = float64(kept.spanBits)

	// Decode CPU per operation, for drmserver.edge_us.
	cpu0 := processCPU()
	for _, i := range lr.main {
		if _, err := lr.decode(lr.in.ops[i].body); err != nil {
			return err
		}
	}
	lr.decodeCPU = (processCPU() - cpu0) / time.Duration(len(lr.main))
	return nil
}

type replayTimes struct {
	decode, belongs, admit, credit []time.Duration
	setSizes                       float64
	spanBits                       int
}

// decode is drmserver's request decode: JSON into the wire shape, then
// license.BuildRect against the corpus schema.
func (lr *layerRun) decode(body []byte) (geometry.Rect, error) {
	var req wireRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return geometry.Rect{}, err
	}
	return license.BuildRect(lr.corpus.Schema(), req.Values)
}

func (lr *layerRun) replay(ctx context.Context, rec *recorder, d *engine.Distributor, cache *headroom.Cache) (*replayTimes, error) {
	rt := &replayTimes{}
	phase := rec.begin(0, "replay", lr.root, -1)
	defer rec.end(phase)
	for _, i := range lr.main {
		o := &lr.in.ops[i]
		sp := rec.begin(0, "op."+o.kind.String(), phase, i)
		var r geometry.Rect
		var err error
		rt.decode = append(rt.decode, rec.timed(0, "drmserver.decode", sp, i, func() { r, err = lr.decode(o.body) }))
		if err != nil {
			return nil, err
		}
		var set bitset.Mask
		rt.belongs = append(rt.belongs, rec.timed(0, "engine.belongs_to", sp, i, func() { set = d.BelongsTo(r) }))
		if set != o.set {
			return nil, fmt.Errorf("op %d: BelongsTo = %v, generator computed %v", i, set, o.set)
		}
		rt.setSizes += float64(set.Len())
		switch o.kind {
		case opIssue:
			var ok bool
			rt.admit = append(rt.admit, rec.timed(0, "headroom.admit", sp, i, func() {
				_, ok, err = cache.Admit(ctx, set, o.count)
				if ok {
					cache.Confirm()
				}
			}))
			if err == nil && !ok {
				err = fmt.Errorf("headroom refused %d for %v", o.count, set)
			}
		case opRevoke:
			rt.credit = append(rt.credit, rec.timed(0, "headroom.credit", sp, i, func() { err = cache.Credit(ctx, set, o.count) }))
		}
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	for _, s := range cache.Summaries() {
		rt.spanBits = max(rt.spanBits, s.SpanBits)
	}
	return rt, nil
}

// audit times the auditor's preparation and walk over the prior log.
func (lr *layerRun) audit(ctx context.Context) error {
	st, err := lr.openCopy("audit")
	if err != nil {
		return err
	}
	defer st.Close()
	var aud *core.Auditor
	took := lr.rec.timed(0, "core.auditor_new", lr.root, -1, func() { aud, err = core.NewAuditorContext(ctx, lr.corpus, st) })
	if err != nil {
		return err
	}
	lr.metrics["core.auditor_new_s"] = took.Seconds()
	aud.Workers = lr.nproc
	var rep core.Report
	took = lr.rec.timed(0, "core.audit", lr.root, -1, func() { rep, err = aud.AuditContext(ctx) })
	if err != nil {
		return err
	}
	lr.metrics["core.audit_s"] = took.Seconds()
	lr.metrics["core.equations"] = float64(rep.Equations)
	if !rep.OK() || !rep.Complete() || rep.Equations != lr.in.equations || aud.Grouping().NumGroups() != len(lr.in.groups) {
		return fmt.Errorf("in-process audit: ok=%v complete=%v equations=%d groups=%d, want ok complete equations=%d groups=%d",
			rep.OK(), rep.Complete(), rep.Equations, aud.Grouping().NumGroups(), lr.in.equations, len(lr.in.groups))
	}
	return nil
}

// engineSerial replays the stream through the engine with one caller.
func (lr *layerRun) engineSerial(ctx context.Context) error {
	st, err := lr.openCopy("engine")
	if err != nil {
		return err
	}
	defer st.Close()
	d, _, err := lr.distributor(ctx, st)
	if err != nil {
		return err
	}
	rects, err := lr.rects()
	if err != nil {
		return err
	}
	times := map[opKind][]time.Duration{}
	phase := lr.rec.begin(0, "engine.serial", lr.root, -1)
	cpu0 := processCPU()
	for k, i := range lr.main {
		o := &lr.in.ops[i]
		var set bitset.Mask
		took := lr.rec.timed(0, "engine."+o.kind.String(), phase, i, func() {
			switch o.kind {
			case opIssue:
				_, err = d.IssueContext(ctx, license.Usage, rects[k], o.count)
				set = o.set
			case opRevoke:
				set, err = d.RevokeContext(ctx, rects[k], o.count)
			case opTransfer:
				set, err = d.TransferContext(ctx, rects[k], o.count)
			}
		})
		if err == nil && set != o.set {
			err = fmt.Errorf("engine resolved %v, generator computed %v", set, o.set)
		}
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, o.kind, err)
		}
		times[o.kind] = append(times[o.kind], took)
	}
	lr.engineCPU = (processCPU() - cpu0) / time.Duration(len(lr.main))
	lr.rec.end(phase)
	lr.metrics["engine.issue_us"] = medianMicros(times[opIssue])
	lr.metrics["engine.revoke_us"] = medianMicros(times[opRevoke])
	lr.metrics["engine.transfer_us"] = medianMicros(times[opTransfer])
	return nil
}

// rects decodes the replayed operations' rectangles once, outside any
// timed region.
func (lr *layerRun) rects() ([]geometry.Rect, error) {
	out := make([]geometry.Rect, len(lr.main))
	for k, i := range lr.main {
		r, err := lr.decode(lr.in.ops[i].body)
		if err != nil {
			return nil, err
		}
		out[k] = r
	}
	return out, nil
}

// issues returns the replayed issue operations and their rectangles.
func (lr *layerRun) issues() ([]*op, []geometry.Rect, error) {
	rects, err := lr.rects()
	if err != nil {
		return nil, nil, err
	}
	var ops []*op
	var rs []geometry.Rect
	for k, i := range lr.main {
		if lr.in.ops[i].kind == opIssue {
			ops = append(ops, &lr.in.ops[i])
			rs = append(rs, rects[k])
		}
	}
	return ops, rs, nil
}

// engineConcurrent measures allocations per issue with one caller, then
// issue latency with nproc callers on a fresh copy of the prior log.
func (lr *layerRun) engineConcurrent(ctx context.Context) error {
	st, err := lr.openCopy("engine-concurrent")
	if err != nil {
		return err
	}
	defer st.Close()
	d, _, err := lr.distributor(ctx, st)
	if err != nil {
		return err
	}
	ops, rects, err := lr.issues()
	if err != nil {
		return err
	}
	k := max(len(ops)/4, 1)
	if k > len(ops) {
		return fmt.Errorf("no issue operations to replay")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < k; i++ {
		if _, err := d.IssueContext(ctx, license.Usage, rects[i], ops[i].count); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	lr.metrics["engine.allocs_per_issue"] = float64(m1.Mallocs-m0.Mallocs) / float64(k)
	lr.metrics["engine.alloc_bytes_per_issue"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(k)

	times, err := lr.concurrently("engine.concurrent", "engine.issue", len(ops)-k, func(j int) error {
		_, err := d.IssueContext(ctx, license.Usage, rects[k+j], ops[k+j].count)
		return err
	})
	if err != nil {
		return err
	}
	lr.metrics["engine.issue_concurrent_us"] = medianMicros(times)
	return nil
}

// concurrently runs call(0..n-1) from nproc callers, caller w taking
// every nproc-th index, and returns every call's wall time.
func (lr *layerRun) concurrently(phaseName, name string, n int, call func(int) error) ([]time.Duration, error) {
	phase := lr.rec.begin(0, phaseName, lr.root, -1)
	defer lr.rec.end(phase)
	times := make([][]time.Duration, lr.nproc)
	errs := make([]error, lr.nproc)
	var wg sync.WaitGroup
	for w := 0; w < lr.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < n; j += lr.nproc {
				var err error
				times[w] = append(times[w], lr.rec.timed(w+1, name, phase, j, func() { err = call(j) }))
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var all []time.Duration
	for w := range times {
		if errs[w] != nil {
			return nil, errs[w]
		}
		all = append(all, times[w]...)
	}
	return all, nil
}

// walAppends times Store.AppendContext on an empty WAL under the
// workload's fsync policy, with one caller and with nproc callers, and
// counts the device writes and syncs behind each append.
func (lr *layerRun) walAppends(ctx context.Context) error {
	var c segCounter
	st, err := wal.Open(filepath.Join(lr.work, "appends"), wal.Options{Fsync: lr.fsync, OpenSegFile: c.open})
	if err != nil {
		return err
	}
	defer st.Close()
	ops, _, err := lr.issues()
	if err != nil {
		return err
	}
	c.reset()
	phase := lr.rec.begin(0, "wal.serial", lr.root, -1)
	var serial []time.Duration
	for j, o := range ops {
		rec := logstore.Record{Set: o.set, Count: o.count}
		serial = append(serial, lr.rec.timed(0, "wal.append", phase, j, func() { err = st.AppendContext(ctx, rec) }))
		if err != nil {
			return err
		}
	}
	lr.rec.end(phase)
	n := float64(len(ops))
	lr.metrics["wal.append_us"] = medianMicros(serial)
	lr.metrics["wal.bytes_per_append"] = float64(c.bytes.Load()) / n
	lr.metrics["wal.syncs_per_append"] = float64(c.syncs.Load()) / n
	lr.metrics["wal.sync_us"] = 0
	if s := c.syncs.Load(); s > 0 {
		lr.metrics["wal.sync_us"] = micros(float64(c.syncNanos.Load()) / float64(s))
	}
	times, err := lr.concurrently("wal.concurrent", "wal.append", len(ops), func(j int) error {
		return st.AppendContext(ctx, logstore.Record{Set: ops[j].set, Count: ops[j].count})
	})
	if err != nil {
		return err
	}
	lr.metrics["wal.append_concurrent_us"] = medianMicros(times)
	return nil
}
