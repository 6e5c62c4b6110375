package slo

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Objectives are the service-level objectives the server evaluates.
// Targets are fractions (0.999 = "99.9%"); a zero target disables that
// objective.
type Objectives struct {
	// Availability is the target fraction of requests answered without a
	// server fault (non-5xx).
	Availability float64
	// LatencyTarget is the target fraction of requests finishing under
	// LatencyThreshold.
	LatencyTarget float64
	// LatencyThreshold is the latency SLO boundary; requests at or over
	// it burn the latency error budget (and have their traces retained,
	// so exemplars stay resolvable). 0 disables the latency objective.
	LatencyThreshold time.Duration
}

// DefaultObjectives: 99.9% availability, 99% of requests under 250ms.
func DefaultObjectives() Objectives {
	return Objectives{
		Availability:     0.999,
		LatencyTarget:    0.99,
		LatencyThreshold: 250 * time.Millisecond,
	}
}

// burnHorizons are the four windows every objective is evaluated over.
var burnHorizons = []struct {
	name string
	d    time.Duration
}{
	{"5m", 5 * time.Minute},
	{"30m", 30 * time.Minute},
	{"1h", time.Hour},
	{"6h", 6 * time.Hour},
}

// AlertRule is one multi-window burn-rate alert: it fires when both the
// short and the long window burn faster than Threshold — the
// short window for responsiveness, the long one to suppress blips.
type AlertRule struct {
	Severity  string
	Short     time.Duration
	Long      time.Duration
	Threshold float64
}

// DefaultAlerts are the canonical SRE pairs: a fast page (5m+1h at
// 14.4× — exhausting a 30-day budget in ~2 days) and a slow ticket
// (30m+6h at 6×).
var DefaultAlerts = []AlertRule{
	{Severity: "page", Short: 5 * time.Minute, Long: time.Hour, Threshold: 14.4},
	{Severity: "ticket", Short: 30 * time.Minute, Long: 6 * time.Hour, Threshold: 6},
}

// TrackerConfig shapes one Tracker's windows.
type TrackerConfig struct {
	// Window is the short percentile window (default 12×10s).
	Window WindowConfig
	// Burn is the long burn-rate ring (default 30s×6h).
	Burn BurnConfig
	// SlowThreshold marks an observation latency-bad when ≥ it (0: no
	// latency tracking in the burn ring).
	SlowThreshold time.Duration
}

// Tracker is the per-scope recording unit: a short latency window for
// "right now" percentiles plus a long burn ring for SLO math. Observe
// is nil-safe, lock-free, and allocation-free; a parent tracker (the
// server-wide scope) is cascaded into automatically.
type Tracker struct {
	parent *Tracker
	slow   time.Duration
	lat    *LatencyWindow
	burn   *BurnWindow
}

// NewTracker builds a tracker from cfg.
func NewTracker(cfg TrackerConfig) *Tracker {
	return &Tracker{
		slow: cfg.SlowThreshold,
		lat:  NewLatencyWindow(cfg.Window),
		burn: NewBurnWindow(cfg.Burn),
	}
}

// Observe records one request: latency and whether the server faulted.
func (t *Tracker) Observe(d time.Duration, isErr bool) {
	for ; t != nil; t = t.parent {
		slow := t.slow > 0 && d >= t.slow
		t.lat.Observe(d.Seconds(), isErr)
		t.burn.Record(isErr, slow)
	}
}

// Latency returns the short-window snapshot (zero on nil).
func (t *Tracker) Latency() LatencySnapshot {
	if t == nil {
		return LatencySnapshot{}
	}
	return t.lat.Snapshot()
}

// Burn returns the counts inside one burn horizon (zero on nil).
func (t *Tracker) Burn(horizon time.Duration) BurnCounts {
	if t == nil {
		return BurnCounts{}
	}
	return t.burn.Counts(horizon)
}

// WindowBurn is one horizon's worth of burn math for an objective.
type WindowBurn struct {
	Window   string  `json:"window"`
	Requests int64   `json:"requests"`
	Bad      int64   `json:"bad"`
	BadRatio float64 `json:"bad_ratio"`
	// BurnRate is BadRatio divided by the error budget (1−target): 1.0
	// burns the budget exactly at its sustainable rate.
	BurnRate float64 `json:"burn_rate"`
}

// AlertStatus is one multi-window rule's current verdict.
type AlertStatus struct {
	Severity    string  `json:"severity"`
	ShortWindow string  `json:"short_window"`
	LongWindow  string  `json:"long_window"`
	Threshold   float64 `json:"threshold"`
	Firing      bool    `json:"firing"`
}

// ObjectiveStatus is one objective's full evaluation.
type ObjectiveStatus struct {
	Name   string  `json:"name"` // "availability" or "latency"
	Target float64 `json:"target"`
	// ThresholdSeconds is the latency boundary (latency objective only).
	ThresholdSeconds float64 `json:"threshold_seconds,omitempty"`
	// BudgetRemaining is the fraction of the 6h error budget left
	// (1 − badRatio₆ₕ/budget; negative when overspent).
	BudgetRemaining float64       `json:"budget_remaining"`
	Windows         []WindowBurn  `json:"windows"`
	Alerts          []AlertStatus `json:"alerts"`
}

func horizonName(d time.Duration) string {
	for _, h := range burnHorizons {
		if h.d == d {
			return h.name
		}
	}
	return d.String()
}

// evaluate runs the burn-rate math for one objective over t's ring.
// bad selects which bad counter the objective consumes.
func evaluate(t *Tracker, name string, target float64, threshold time.Duration, bad func(BurnCounts) int64) ObjectiveStatus {
	budget := 1 - target
	st := ObjectiveStatus{Name: name, Target: target, BudgetRemaining: 1}
	if threshold > 0 {
		st.ThresholdSeconds = threshold.Seconds()
	}
	burnAt := make(map[string]float64, len(burnHorizons))
	for _, h := range burnHorizons {
		c := t.Burn(h.d)
		wb := WindowBurn{Window: h.name, Requests: c.Total, Bad: bad(c)}
		if c.Total > 0 {
			wb.BadRatio = float64(wb.Bad) / float64(c.Total)
		}
		if budget > 0 {
			wb.BurnRate = wb.BadRatio / budget
		} else if wb.BadRatio > 0 {
			// A zero error budget (target 100%) burns infinitely fast;
			// keep the value finite so the status stays JSON-encodable.
			wb.BurnRate = math.MaxFloat64
		}
		burnAt[h.name] = wb.BurnRate
		st.Windows = append(st.Windows, wb)
		if h.name == "6h" {
			st.BudgetRemaining = 1 - wb.BurnRate
		}
	}
	for _, r := range DefaultAlerts {
		st.Alerts = append(st.Alerts, AlertStatus{
			Severity:    r.Severity,
			ShortWindow: horizonName(r.Short),
			LongWindow:  horizonName(r.Long),
			Threshold:   r.Threshold,
			Firing:      burnAt[horizonName(r.Short)] > r.Threshold && burnAt[horizonName(r.Long)] > r.Threshold,
		})
	}
	return st
}

// ScopeWindow is one scope's short-window summary, the per-endpoint /
// per-entry row of /v1/status. Quantiles landing in the +Inf overflow
// bucket are clamped to the top finite bucket bound (the histogram
// cannot resolve beyond it).
type ScopeWindow struct {
	Name          string  `json:"name"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	ErrorRate     float64 `json:"error_rate"`
	P50Seconds    float64 `json:"p50_seconds"`
	P95Seconds    float64 `json:"p95_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
	WindowSeconds float64 `json:"window_seconds"`
}

func clampQuantile(s LatencySnapshot, q float64) float64 {
	v := s.Quantile(q)
	if math.IsInf(v, +1) {
		if len(s.Upper) > 0 {
			return s.Upper[len(s.Upper)-1]
		}
		return 0
	}
	return v
}

func scopeWindow(name string, t *Tracker) ScopeWindow {
	s := t.Latency()
	return ScopeWindow{
		Name:          name,
		Requests:      s.Count,
		Errors:        s.Errors,
		ErrorRate:     s.ErrorRate(),
		P50Seconds:    clampQuantile(s, 0.50),
		P95Seconds:    clampQuantile(s, 0.95),
		P99Seconds:    clampQuantile(s, 0.99),
		WindowSeconds: t.lat.WindowSeconds(),
	}
}

// Status is the machine-readable SLO state: GET /v1/slo returns it
// verbatim, GET /v1/status embeds it.
type Status struct {
	Objectives []ObjectiveStatus `json:"objectives"`
	Endpoints  []ScopeWindow     `json:"endpoints"`
	Entries    []ScopeWindow     `json:"entries,omitempty"`
}

// Service owns the server's SLO state: a server-wide tracker the
// objectives are evaluated over, per-endpoint and per-entry trackers for
// windowed percentiles, the heavy-hitter sketches, and the drm_slo_*
// gauge handles Refresh maintains.
type Service struct {
	obj     Objectives
	cfg     TrackerConfig
	server  *Tracker
	hitters *Hitters

	mu        sync.Mutex
	endpoints map[string]*Tracker
	entries   map[string]*Tracker

	burnG   *obs.FloatGaugeVec
	alertG  *obs.FloatGaugeVec
	budgetG *obs.FloatGaugeVec
	reqG    *obs.FloatGaugeVec
	errG    *obs.FloatGaugeVec
	quantG  *obs.FloatGaugeVec
}

// NewService registers the drm_slo_* families on reg and returns the
// service. cfg's SlowThreshold is forced to the objectives' latency
// threshold so burn math and windowed tracking agree.
func NewService(reg *obs.Registry, obj Objectives, cfg TrackerConfig) *Service {
	cfg.SlowThreshold = obj.LatencyThreshold
	s := &Service{
		obj:       obj,
		cfg:       cfg,
		server:    NewTracker(cfg),
		hitters:   NewHitters(32),
		endpoints: make(map[string]*Tracker),
		entries:   make(map[string]*Tracker),
	}
	if reg != nil {
		s.burnG = reg.FloatGaugeVec("drm_slo_burn_rate",
			"Error-budget burn rate per objective and window (1.0 = sustainable).",
			"objective", "window")
		s.alertG = reg.FloatGaugeVec("drm_slo_alert_firing",
			"1 when the multi-window burn-rate alert is firing.",
			"objective", "severity")
		s.budgetG = reg.FloatGaugeVec("drm_slo_error_budget_remaining",
			"Fraction of the 6h error budget left per objective.",
			"objective")
		s.reqG = reg.FloatGaugeVec("drm_slo_window_requests",
			"Requests inside the sliding window, per scope.",
			"scope", "name")
		s.errG = reg.FloatGaugeVec("drm_slo_window_error_rate",
			"Error rate inside the sliding window, per scope.",
			"scope", "name")
		s.quantG = reg.FloatGaugeVec("drm_slo_window_latency_seconds",
			"Sliding-window latency quantiles, per scope.",
			"scope", "name", "quantile")
	}
	return s
}

// LatencyThreshold returns the latency SLO boundary (0 when disabled or
// on nil) — the retention bar for exemplar traces.
func (s *Service) LatencyThreshold() time.Duration {
	if s == nil {
		return 0
	}
	return s.obj.LatencyThreshold
}

// Hitters returns the heavy-hitter sketches (nil-safe).
func (s *Service) Hitters() *Hitters {
	if s == nil {
		return nil
	}
	return s.hitters
}

// Endpoint returns (creating on first use) the tracker for one route
// pattern. Endpoint observations cascade into the server-wide tracker
// the objectives are evaluated over.
func (s *Service) Endpoint(name string) *Tracker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.endpoints[name]
	if !ok {
		t = NewTracker(s.cfg)
		t.parent = s.server
		s.endpoints[name] = t
	}
	return t
}

// Entry returns (creating on first use) the tracker for one catalog
// entry ("content/permission"). Entry observations do not cascade — the
// endpoint layer already counts every request once.
func (s *Service) Entry(name string) *Tracker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.entries[name]
	if !ok {
		t = NewTracker(s.cfg)
		s.entries[name] = t
	}
	return t
}

func snapshotScopes(m map[string]*Tracker) []ScopeWindow {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ScopeWindow, 0, len(names))
	for _, name := range names {
		out = append(out, scopeWindow(name, m[name]))
	}
	return out
}

// Refresh re-evaluates every objective and scope, updates the drm_slo_*
// gauges, and returns the full status. Called from the /metrics,
// /v1/slo, and /v1/status handlers so scrapes always see current window
// math. Nil-safe (zero Status).
func (s *Service) Refresh() Status {
	if s == nil {
		return Status{}
	}
	var st Status
	if s.obj.Availability > 0 {
		st.Objectives = append(st.Objectives, evaluate(s.server, "availability",
			s.obj.Availability, 0, func(c BurnCounts) int64 { return c.BadAvail }))
	}
	if s.obj.LatencyTarget > 0 && s.obj.LatencyThreshold > 0 {
		st.Objectives = append(st.Objectives, evaluate(s.server, "latency",
			s.obj.LatencyTarget, s.obj.LatencyThreshold, func(c BurnCounts) int64 { return c.BadSlow }))
	}
	s.mu.Lock()
	endpoints := make(map[string]*Tracker, len(s.endpoints))
	for k, v := range s.endpoints {
		endpoints[k] = v
	}
	entries := make(map[string]*Tracker, len(s.entries))
	for k, v := range s.entries {
		entries[k] = v
	}
	s.mu.Unlock()
	st.Endpoints = snapshotScopes(endpoints)
	st.Entries = snapshotScopes(entries)

	for _, o := range st.Objectives {
		for _, w := range o.Windows {
			s.burnG.With(o.Name, w.Window).Set(w.BurnRate)
		}
		for _, a := range o.Alerts {
			v := 0.0
			if a.Firing {
				v = 1
			}
			s.alertG.With(o.Name, a.Severity).Set(v)
		}
		s.budgetG.With(o.Name).Set(o.BudgetRemaining)
	}
	server := scopeWindow("all", s.server)
	s.setScopeGauges("server", server)
	for _, w := range st.Endpoints {
		s.setScopeGauges("endpoint", w)
	}
	for _, w := range st.Entries {
		s.setScopeGauges("entry", w)
	}
	return st
}

func (s *Service) setScopeGauges(scope string, w ScopeWindow) {
	s.reqG.With(scope, w.Name).Set(float64(w.Requests))
	s.errG.With(scope, w.Name).Set(w.ErrorRate)
	s.quantG.With(scope, w.Name, "0.5").Set(w.P50Seconds)
	s.quantG.With(scope, w.Name, "0.95").Set(w.P95Seconds)
	s.quantG.With(scope, w.Name, "0.99").Set(w.P99Seconds)
}
