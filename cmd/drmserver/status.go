package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/slo"
)

// serviceStatus is the serving-state block of /v1/status; the mode
// constructors fill the corpus-shaped fields, the handler stamps
// uptime and drain state.
type serviceStatus struct {
	Name          string  `json:"name"`
	Mode          string  `json:"mode"`
	Draining      bool    `json:"draining"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Entries       int     `json:"entries"`
	Licenses      int     `json:"licenses"`
	Groups        int     `json:"groups"`
	LogRecords    int     `json:"log_records"`
}

// traceRingStatus summarises the tail sampler for /v1/status.
type traceRingStatus struct {
	Enabled   bool  `json:"enabled"`
	Sampled   int64 `json:"sampled"`
	Dropped   int64 `json:"dropped"`
	Retained  int   `json:"retained"`
	Evictions int64 `json:"evictions"`
}

// exemplarRef is one metric→trace link: a retained latency observation
// whose trace is resolvable at TraceURL. Only observations at or over
// the latency SLO threshold are listed — those are the traces the SLO
// layer force-retains — and each candidate is checked against the live
// ring, so the link never dangles.
type exemplarRef struct {
	Metric       string  `json:"metric"`
	Scope        string  `json:"scope"`
	LE           string  `json:"le"`
	ValueSeconds float64 `json:"value_seconds"`
	TraceID      string  `json:"trace_id"`
	TraceURL     string  `json:"trace_url"`
	UnixNanos    int64   `json:"unix_ns"`
}

// statusResponse is the single operator pane: serving state, SLO
// evaluation, windowed per-scope latency, heavy hitters, runtime
// telemetry, trace-ring state, and the exemplar links into
// /debug/traces.
type statusResponse struct {
	Service serviceStatus `json:"service"`
	// Replication is the cluster-role block: role, readiness, durable
	// sequence, and — on followers — lag against the leader. Omitted by
	// servers constructed before the role wiring runs (tests).
	Replication  *replicationStatus  `json:"replication,omitempty"`
	SLO          slo.Status          `json:"slo"`
	HeavyHitters slo.HittersSnapshot `json:"heavy_hitters"`
	Runtime      obs.RuntimeSample   `json:"runtime"`
	Traces       traceRingStatus     `json:"traces"`
	Exemplars    []exemplarRef       `json:"exemplars"`
}

func (o *serverObs) serviceStatus() serviceStatus {
	st := serviceStatus{Name: "drmserver"}
	if o.info != nil {
		st = o.info()
	}
	st.Draining = o.draining.Load()
	st.UptimeSeconds = time.Since(o.start).Seconds()
	return st
}

func (o *serverObs) traceStatus() traceRingStatus {
	st := traceRingStatus{Enabled: tracer != nil}
	if tracer == nil {
		return st
	}
	st.Sampled = tracer.Sampled()
	st.Dropped = tracer.Dropped()
	st.Retained = len(tracer.Traces())
	st.Evictions = tracer.Evictions()
	return st
}

// exemplarRefs collects the retained latency exemplars (HTTP endpoints
// plus the engine issue histogram), filtered to the latency-SLO
// threshold when one is set, sorted slowest first.
func (o *serverObs) exemplarRefs() []exemplarRef {
	thr := o.slo.LatencyThreshold().Seconds()
	var out []exemplarRef
	add := func(metric, scope string, exs []obs.Exemplar) {
		for _, e := range exs {
			if thr > 0 && e.Value < thr {
				continue
			}
			// Only link traces still live in the ring: an exemplar can
			// outlive its trace (untracked endpoints are never
			// force-retained, and retained traces can be evicted).
			if tracer.Get(e.TraceID) == nil {
				continue
			}
			out = append(out, exemplarRef{
				Metric:       metric,
				Scope:        scope,
				LE:           obs.FormatFloat(e.LE),
				ValueSeconds: e.Value,
				TraceID:      e.TraceID,
				TraceURL:     "/debug/traces/" + e.TraceID,
				UnixNanos:    e.UnixNanos,
			})
		}
	}
	for endpoint, exs := range o.httpm.Exemplars() {
		add("drm_http_request_seconds", endpoint, exs)
	}
	add("drm_issue_seconds", "engine.issue", engine.M.IssueSeconds.Exemplars())
	sort.Slice(out, func(i, j int) bool {
		if out[i].ValueSeconds != out[j].ValueSeconds {
			return out[i].ValueSeconds > out[j].ValueSeconds
		}
		return out[i].Scope < out[j].Scope
	})
	return out
}

// handleSLO is the machine-readable SLO state: objectives with
// multi-window burn rates and alert verdicts, plus the windowed
// per-scope summaries. Refresh also updates the drm_slo_* gauges, so a
// poller and a scraper see the same numbers.
func (o *serverObs) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, o.slo.Refresh())
}

// handleStatus composes the unified operator pane. ?format=text (or an
// Accept header preferring text/plain) renders the human-readable
// version of the same data.
func (o *serverObs) handleStatus(w http.ResponseWriter, r *http.Request) {
	resp := statusResponse{
		Service:      o.serviceStatus(),
		SLO:          o.slo.Refresh(),
		HeavyHitters: o.slo.Hitters().Snapshot(),
		Runtime:      o.runtime.Sample(),
		Traces:       o.traceStatus(),
		Exemplars:    o.exemplarRefs(),
	}
	if o.repl != nil {
		resp.Replication = o.repl()
	}
	if r.URL.Query().Get("format") == "text" ||
		strings.HasPrefix(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, renderStatusText(resp))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func fmtSeconds(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// renderStatusText is the terminal-friendly pane: the same content as
// the JSON, formatted for a human mid-incident.
func renderStatusText(s statusResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — mode %s, uptime %s, draining %v\n",
		s.Service.Name, s.Service.Mode,
		time.Duration(s.Service.UptimeSeconds*float64(time.Second)).Round(time.Second),
		s.Service.Draining)
	fmt.Fprintf(&b, "entries %d, licenses %d, groups %d, log records %d\n",
		s.Service.Entries, s.Service.Licenses, s.Service.Groups, s.Service.LogRecords)
	if r := s.Replication; r != nil {
		fmt.Fprintf(&b, "replication: role %s, ready %v, seq %d", r.Role, r.Ready, r.Seq)
		if r.Role == "follower" {
			fmt.Fprintf(&b, ", leader %s, lag %d seqs (%.2fs)", r.Leader, r.LagSeqs, r.LagSeconds)
		}
		if r.Promoted {
			b.WriteString(", promoted")
		}
		b.WriteByte('\n')
	}

	b.WriteString("\nSLO objectives\n")
	if len(s.SLO.Objectives) == 0 {
		b.WriteString("  (disabled)\n")
	}
	for _, o := range s.SLO.Objectives {
		fmt.Fprintf(&b, "  %-12s target %.4g%%", o.Name, o.Target*100)
		if o.ThresholdSeconds > 0 {
			fmt.Fprintf(&b, " under %s", fmtSeconds(o.ThresholdSeconds))
		}
		fmt.Fprintf(&b, "  budget remaining %.1f%%\n", o.BudgetRemaining*100)
		b.WriteString("    burn")
		for _, w := range o.Windows {
			fmt.Fprintf(&b, "  %s=%.2f (%d/%d bad)", w.Window, w.BurnRate, w.Bad, w.Requests)
		}
		b.WriteByte('\n')
		for _, a := range o.Alerts {
			state := "ok"
			if a.Firing {
				state = "FIRING"
			}
			fmt.Fprintf(&b, "    alert %-7s (%s+%s > %.1fx): %s\n",
				a.Severity, a.ShortWindow, a.LongWindow, a.Threshold, state)
		}
	}

	writeScopes := func(title string, scopes []slo.ScopeWindow) {
		if len(scopes) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%s (last %s)\n", title,
			time.Duration(scopes[0].WindowSeconds*float64(time.Second)).Round(time.Second))
		for _, sc := range scopes {
			fmt.Fprintf(&b, "  %-40s %6d req  err %5.2f%%  p50 %-9s p95 %-9s p99 %s\n",
				sc.Name, sc.Requests, sc.ErrorRate*100,
				fmtSeconds(sc.P50Seconds), fmtSeconds(sc.P95Seconds), fmtSeconds(sc.P99Seconds))
		}
	}
	writeScopes("Endpoints", s.SLO.Endpoints)
	writeScopes("Entries", s.SLO.Entries)

	writeHitters := func(title string, rows []slo.HitterCount, unit string) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&b, "  %s:", title)
		n := len(rows)
		if n > 5 {
			n = 5
		}
		for _, r := range rows[:n] {
			fmt.Fprintf(&b, "  %s=%d%s", r.Item, r.Weight, unit)
		}
		b.WriteByte('\n')
	}
	if len(s.HeavyHitters.Entries.ByRequests)+len(s.HeavyHitters.Groups.ByRequests) > 0 {
		b.WriteString("\nHeavy hitters\n")
		writeHitters("entries by requests", s.HeavyHitters.Entries.ByRequests, "")
		writeHitters("entries by latency", s.HeavyHitters.Entries.ByLatencyNS, "ns")
		writeHitters("entries by rejections", s.HeavyHitters.Entries.ByRejections, "")
		writeHitters("groups by requests", s.HeavyHitters.Groups.ByRequests, "")
		writeHitters("groups by latency", s.HeavyHitters.Groups.ByLatencyNS, "ns")
		writeHitters("groups by rejections", s.HeavyHitters.Groups.ByRejections, "")
	}

	fmt.Fprintf(&b, "\nRuntime: %d goroutines, heap %d MiB (%d MiB sys), %d GC cycles (%.1fms paused), %d fds, wal backlog %d\n",
		s.Runtime.Goroutines, s.Runtime.HeapAllocBytes>>20, s.Runtime.HeapSysBytes>>20,
		s.Runtime.GCCycles, s.Runtime.GCPauseTotalSeconds*1e3, s.Runtime.OpenFDs, s.Runtime.WALFsyncBacklog)
	fmt.Fprintf(&b, "Traces: enabled %v, %d sampled, %d dropped, %d retained, %d evicted\n",
		s.Traces.Enabled, s.Traces.Sampled, s.Traces.Dropped, s.Traces.Retained, s.Traces.Evictions)
	if len(s.Exemplars) > 0 {
		b.WriteString("Slow-request exemplars (→ /debug/traces/{id}):\n")
		n := len(s.Exemplars)
		if n > 10 {
			n = 10
		}
		for _, e := range s.Exemplars[:n] {
			fmt.Fprintf(&b, "  %-40s %-9s le=%s trace=%s\n",
				e.Scope, fmtSeconds(e.ValueSeconds), e.LE, e.TraceID)
		}
	}
	return b.String()
}
