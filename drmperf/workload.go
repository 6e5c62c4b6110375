package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// spec is one workload: corpus shape, pre-created log, offered load and
// the server's durability policy. Every field is a constant fixed here and
// never derived from a measurement, so a parent commit and a change get
// the same inputs and the same load.
type spec struct {
	name string
	// fsync is the drmserver -fsync policy.
	fsync string
	// groups lists the licenses planted in each overlap group.
	groups []int
	// prior is the number of issue records in the WAL the server recovers.
	prior int
	// rate is the offered rate of issue, revoke and transfer requests, in
	// operations per second; revokePct and transferPct are the debit
	// shares of that stream, in percent.
	rate                   float64
	revokePct, transferPct int
	// traceOps caps the operations each traced-run phase replays.
	traceOps int
}

// workloads are the benchmark's workloads. 1500 ops/s is about half of
// the ≈3000 issues/s a 2-CPU host serves closed loop on two connections
// under -fsync always; at ≈350 µs of server CPU per operation,
// lifecycle-wide at the same rate keeps about a quarter of two CPUs busy.
// At 500 ops/s the server idled between requests, and waking up cost
// more CPU per operation than the work itself.
var workloads = []spec{
	{
		// Issues only, each appended and synced before it is acknowledged;
		// headroom spans stay at most 7 bits, so admission is cheap.
		name: "issue-durable", fsync: "always", groups: []int{6, 5, 5}, prior: 20000,
		rate: 1500, traceOps: 3000,
	},
	{
		// No fsync: the 16-bit dense headroom span, JSON decode and
		// per-request allocation dominate; debits exercise the ledger and
		// headroom.Credit. The 80/10/10 mix is drmbench -lifecycle-mix's
		// default 8:1:1.
		name: "lifecycle-wide", fsync: "os", groups: []int{16}, prior: 20000,
		rate: 1500, revokePct: 10, transferPct: 10, traceOps: 5000,
	},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// probeAudits audits follow the window, auditGap apart, on the same two
// connections; they never run during it, so they never block the stream
// measured. The audits set the server's peak RSS, and where the garbage
// collector falls during one moves that peak; the more audits, the more
// chances the peak gets to reach its high.
const (
	probeAudits = 40
	auditGap    = 200 * time.Millisecond
)

// dims is the number of interval constraint axes of generated corpora
// (the paper's M = 4); each license spans cells consecutive cells of its
// group's band on axis 0.
const (
	dims      = 4
	cells     = 3
	axisWidth = 1 << 20
	cellWidth = 1 << 14
	bandWidth = 1 << 24
)

type opKind uint8

const (
	opIssue opKind = iota
	opRevoke
	opTransfer
	opAudit
)

func (k opKind) String() string {
	return [...]string{"issue", "revoke", "transfer", "audit"}[k]
}

// rect is a constraint rectangle: one closed [lo, hi] interval per axis.
type rect [dims][2]int64

// contains reports whether q lies inside r on every axis.
func (r rect) contains(q rect) bool {
	for d := range r {
		if q[d][0] < r[d][0] || q[d][1] > r[d][1] {
			return false
		}
	}
	return true
}

// overlaps reports whether r and q intersect on every axis.
func (r rect) overlaps(q rect) bool {
	for d := range r {
		if r[d][0] > q[d][1] || q[d][0] > r[d][1] {
			return false
		}
	}
	return true
}

// op is one request of the generated stream.
type op struct {
	// at is the intended send time, as an offset from the window start.
	at    time.Duration
	kind  opKind
	rect  rect
	count int64
	// set is the belongs-to set the generator computed from the corpus:
	// what every acknowledged response must echo.
	set bitset.Mask
	// body is the JSON request body (empty for audits); req is the whole
	// HTTP/1.1 request.
	body []byte
	req  []byte
}

// input is everything one seed generates for one workload.
type input struct {
	spec     spec
	seed     int64
	licenses []rect
	corpus   []byte
	prior    []logstore.Record
	ops      []op
	// probe holds the audits that follow the window, timed from its end.
	probe []op
	// groups is the overlap grouping the benchmark derives from the
	// corpus geometry on its own; equations is Σ_k (2^{N_k} − 1).
	groups    [][]int
	equations int64
	// distinctSets counts the belongs-to sets of the prior log and the
	// request stream.
	distinctSets int
	digest       uint64
}

// generate builds a workload's corpus, prior log and request stream for a
// seed and a measurement window. The same arguments always give
// byte-identical results.
func generate(s spec, seed int64, window time.Duration) *input {
	rng := rand.New(rand.NewSource(seed))
	in := &input{spec: s, seed: seed}

	// The corpus geometry is part of the workload, not of the seed: the
	// seed draws the log, the budgets and the request stream over it, so
	// the number of distinct belongs-to sets — and with it the audit's
	// cost — stays the same from seed to seed.
	//
	// Group g owns band g on axis 0, so groups never overlap. Inside a
	// group, license i spans cells i..i+cells-1 with a jitter, so each
	// license overlaps its successor (the group is connected) and a point
	// lies in up to cells licenses. Axes 1..3 all cover the middle of the
	// space, so they never disconnect a group but do vary containment.
	geo := rand.New(rand.NewSource(1))
	for g, size := range s.groups {
		base := int64(g) * bandWidth
		for i := 0; i < size; i++ {
			var r rect
			r[0][0] = base + int64(i)*cellWidth + geo.Int63n(cellWidth/2)
			r[0][1] = base + int64(i+cells)*cellWidth - 1 + geo.Int63n(cellWidth/2)
			for d := 1; d < dims; d++ {
				r[d][0] = geo.Int63n(axisWidth / 2)
				r[d][1] = axisWidth - 1 - geo.Int63n(axisWidth/2)
			}
			in.licenses = append(in.licenses, r)
		}
	}
	n := len(in.licenses)
	in.groups = groupsOf(in.licenses)
	for _, g := range in.groups {
		in.equations += int64(1)<<uint(len(g)) - 1
	}

	// assigned[j] sums the counts of every issue sampled inside license
	// j. An issue's belongs-to set always holds the license it was
	// sampled in, so C⟨S⟩ <= Σ_{j∈S} assigned[j] for every S and budgets
	// above assigned[] admit every issue of the stream.
	assigned := make([]int64, n)
	sets := make(map[bitset.Mask]bool)
	issue := func(j int) (rect, bitset.Mask, int64) {
		q := sampleInside(rng, in.licenses[j])
		set := belongsTo(in.licenses, q)
		c := 10 + rng.Int63n(21)
		assigned[j] += c
		sets[set] = true
		return q, set, c
	}

	// The prior log first visits every license once, so every group's
	// headroom span is complete before the first request arrives.
	net := make(map[bitset.Mask]int64)
	repr := make(map[bitset.Mask]rect)
	in.prior = make([]logstore.Record, 0, s.prior)
	for i := 0; i < s.prior; i++ {
		j := i
		if i >= n {
			j = rng.Intn(n)
		}
		q, set, c := issue(j)
		in.prior = append(in.prior, logstore.Record{Set: set, Count: c})
		net[set] += c
		if _, ok := repr[set]; !ok {
			repr[set] = q
		}
	}

	// Debits draw only on counts the prior log already holds, at most
	// half of each set's net count in revokes, so every debit is
	// admissible whatever the issues do and no set's count returns to
	// zero.
	debitSets := make([]bitset.Mask, 0, len(net))
	for set := range net {
		debitSets = append(debitSets, set)
	}
	sort.Slice(debitSets, func(a, b int) bool { return debitSets[a] < debitSets[b] })
	revokeLeft := make(map[bitset.Mask]int64, len(net))
	for set, c := range net {
		revokeLeft[set] = c / 2
	}
	debit := func(kind opKind) (bitset.Mask, int64, bool) {
		if len(debitSets) == 0 {
			return 0, 0, false
		}
		c := 1 + rng.Int63n(5)
		start := rng.Intn(len(debitSets))
		for k := range debitSets {
			set := debitSets[(start+k)%len(debitSets)]
			if kind == opRevoke && revokeLeft[set] >= c {
				revokeLeft[set] -= c
				return set, c, true
			}
			if kind == opTransfer && net[set]/2 >= c {
				return set, c, true
			}
		}
		return 0, 0, false
	}

	for i, total := 0, slots(s.rate, 0, window); i < total; i++ {
		o := op{at: slot(i, s.rate, 0), kind: opIssue}
		switch p := rng.Intn(100); {
		case p < s.revokePct:
			o.kind = opRevoke
		case p < s.revokePct+s.transferPct:
			o.kind = opTransfer
		}
		if o.kind != opIssue {
			if set, c, ok := debit(o.kind); ok {
				o.set, o.count, o.rect = set, c, repr[set]
			} else {
				o.kind = opIssue
			}
		}
		if o.kind == opIssue {
			o.rect, o.set, o.count = issue(rng.Intn(n))
		}
		in.ops = append(in.ops, o)
	}
	for i := 0; i < probeAudits; i++ {
		in.probe = append(in.probe, op{at: auditGap/2 + time.Duration(i)*auditGap, kind: opAudit})
	}

	aggs := make([]int64, n)
	for j, a := range assigned {
		aggs[j] = a + a/4 + 100
	}
	in.distinctSets = len(sets)
	in.corpus = corpusDoc(in.licenses, aggs)
	for i := range in.ops {
		in.ops[i].body, in.ops[i].req = request(&in.ops[i])
	}
	for i := range in.probe {
		in.probe[i].body, in.probe[i].req = request(&in.probe[i])
	}
	in.digest = digest(in)
	return in
}

// sampleInside draws a small rectangle inside r.
func sampleInside(rng *rand.Rand, r rect) rect {
	var q rect
	for d := range r {
		lo := r[d][0] + rng.Int63n(r[d][1]-r[d][0]+1)
		q[d][0] = lo
		q[d][1] = min(r[d][1], lo+rng.Int63n(cellWidth/4))
	}
	return q
}

// belongsTo is the brute-force belongs-to set of q: every license whose
// rectangle contains it.
func belongsTo(licenses []rect, q rect) bitset.Mask {
	var set bitset.Mask
	for j, l := range licenses {
		if l.contains(q) {
			set = set.With(j)
		}
	}
	return set
}

// groupsOf partitions licenses into the connected components of their
// overlap graph, each component's members ascending, components ordered
// by smallest member.
func groupsOf(licenses []rect) [][]int {
	parent := make([]int, len(licenses))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := range licenses {
		for j := i + 1; j < len(licenses); j++ {
			if licenses[i].overlaps(licenses[j]) {
				parent[find(j)] = find(i)
			}
		}
	}
	byRoot := make(map[int]int)
	var out [][]int
	for i := range licenses {
		r := find(i)
		k, ok := byRoot[r]
		if !ok {
			k = len(out)
			byRoot[r] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], i)
	}
	return out
}

// corpusDoc renders the corpus in drmserver's -corpus document format.
func corpusDoc(licenses []rect, aggs []int64) []byte {
	b := []byte(`{"version":1,"content":"K","permission":"play","axes":[`)
	for d := 0; d < dims; d++ {
		if d > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"name":"c%d","kind":"interval"}`, d)
	}
	b = append(b, `],"licenses":[`...)
	for j, l := range licenses {
		if j > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"name":"L_D^%d","aggregate":%d,"values":`, j+1, aggs[j])
		b = appendValues(b, l)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

func appendValues(b []byte, r rect) []byte {
	b = append(b, '[')
	for d := range r {
		if d > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"lo":%d,"hi":%d}`, r[d][0], r[d][1])
	}
	return append(b, ']')
}

// request renders an operation as its JSON body and full HTTP/1.1 request.
func request(o *op) (body, req []byte) {
	var path string
	switch o.kind {
	case opAudit:
		return nil, []byte("GET /v1/audit HTTP/1.1\r\nHost: drmserver\r\n\r\n")
	case opIssue:
		path = "/v1/issue"
	case opRevoke:
		path = "/v1/revoke"
	case opTransfer:
		path = "/v1/transfer"
	}
	body = append([]byte(`{"values":`), appendValues(nil, o.rect)...)
	body = append(body, `,"count":`...)
	body = append(strconv.AppendInt(body, o.count, 10), '}')
	req = fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: drmserver\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, len(body))
	return body, append(req, body...)
}

// digest fingerprints everything the server receives — corpus, prior log
// and request stream — so runs can show they fed identical inputs.
func digest(in *input) uint64 {
	h := fnv.New64a()
	h.Write(in.corpus)
	var b []byte
	for _, r := range in.prior {
		b = strconv.AppendUint(b[:0], uint64(r.Set), 16)
		b = append(b, ':')
		b = strconv.AppendInt(b, r.Count, 10)
		b = append(b, ';')
		h.Write(b)
	}
	for _, o := range append(in.ops[:len(in.ops):len(in.ops)], in.probe...) {
		b = strconv.AppendInt(b[:0], int64(o.at), 10)
		b = append(b, ' ')
		h.Write(b)
		h.Write(o.req)
	}
	return h.Sum64()
}
