package logstore

import "repro/internal/obs"

// M holds the package's metric hooks, nil until Instrument is called; obs
// metric methods are no-ops on nil receivers, so uninstrumented stores
// record nothing and allocate nothing.
var M Metrics

// Metrics are the issuance-log signals.
type Metrics struct {
	// Appends counts records appended to Mem stores; the WAL counts its
	// own appends in drm_wal_appends_total.
	Appends *obs.Counter
}

// Instrument registers the log-store metric families on reg and points
// the hooks at them.
func Instrument(reg *obs.Registry) {
	M = Metrics{
		Appends: reg.Counter("drm_log_appends_total",
			"Issuance records appended to in-memory log stores."),
	}
}
