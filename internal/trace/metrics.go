package trace

import "repro/internal/obs"

// Metrics holds the package's nil-safe instrumentation hooks, following
// the internal/obs convention: every field is nil until Instrument is
// called, and all hook methods no-op on nil, so uninstrumented binaries
// pay nothing.
type Metrics struct {
	// SpansStarted counts spans started across all traces (sampled or
	// not): drm_trace_spans_started_total.
	SpansStarted *obs.Counter
	// TracesSampled counts completed traces retained by tail-sampling:
	// drm_trace_traces_sampled_total.
	TracesSampled *obs.Counter
	// TracesDropped counts completed traces discarded by the policy:
	// drm_trace_traces_dropped_total.
	TracesDropped *obs.Counter
	// RingEvictions counts retained traces overwritten by newer ones:
	// drm_trace_ring_evictions_total.
	RingEvictions *obs.Counter
	// RemoteExtracted counts requests whose traceparent header parsed
	// and seeded a remote-parent root: drm_trace_remote_extracted_total.
	RemoteExtracted *obs.Counter
	// RemoteInjected counts traceparent headers stamped onto outgoing
	// requests/responses: drm_trace_remote_injected_total.
	RemoteInjected *obs.Counter
	// RemoteMalformed counts traceparent headers that were present but
	// failed validation: drm_trace_remote_malformed_total.
	RemoteMalformed *obs.Counter
}

// M is the package-level hook set, zero-valued (all nil) by default.
var M Metrics

// Instrument registers the package's metrics on reg and activates the
// hooks. Call once at startup, before concurrent use.
func Instrument(reg *obs.Registry) {
	M = Metrics{
		SpansStarted:    reg.Counter("drm_trace_spans_started_total", "Spans started across all traces."),
		TracesSampled:   reg.Counter("drm_trace_traces_sampled_total", "Completed traces retained by tail-sampling."),
		TracesDropped:   reg.Counter("drm_trace_traces_dropped_total", "Completed traces discarded by the sampling policy."),
		RingEvictions:   reg.Counter("drm_trace_ring_evictions_total", "Retained traces overwritten by newer ones."),
		RemoteExtracted: reg.Counter("drm_trace_remote_extracted_total", "Incoming traceparent headers parsed into remote-parent roots."),
		RemoteInjected:  reg.Counter("drm_trace_remote_injected_total", "Traceparent headers stamped onto outgoing requests."),
		RemoteMalformed: reg.Counter("drm_trace_remote_malformed_total", "Traceparent headers present but rejected by validation."),
	}
}
