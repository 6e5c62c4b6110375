package wal

import "repro/internal/obs"

// M holds the package's metric hooks, nil until Instrument is called;
// obs metric methods are no-ops on nil receivers, so uninstrumented
// stores record nothing and allocate nothing.
var M Metrics

// Metrics are the durability signals of the WAL: append/fsync
// throughput and latency, segment economy, snapshot freshness, and
// recovery cost.
type Metrics struct {
	// Appends counts records appended; Fsyncs counts fsync calls and
	// FsyncSeconds their latency (the group-commit economy is
	// Appends/Fsyncs).
	Appends      *obs.Counter
	Fsyncs       *obs.Counter
	FsyncSeconds *obs.Histogram
	// Rotations counts segment rolls; Segments is the live segment-file
	// count; SegmentsCompacted counts files retired by compaction and
	// CompactionErrors the compaction passes that failed.
	Rotations         *obs.Counter
	Segments          *obs.Gauge
	SegmentsCompacted *obs.Counter
	CompactionErrors  *obs.Counter
	// Snapshots counts checkpoints, SnapshotSeconds their wall time,
	// SnapshotRecords the compacted entry count of the latest one, and
	// SnapshotUnix its install time (age = now − SnapshotUnix).
	Snapshots       *obs.Counter
	SnapshotSeconds *obs.Histogram
	SnapshotRecords *obs.Gauge
	SnapshotUnix    *obs.Gauge
	// RecoverySeconds is the last Open's recovery wall time;
	// TruncatedBytes counts torn-tail bytes removed across recoveries.
	RecoverySeconds *obs.FloatGauge
	TruncatedBytes  *obs.Counter
}

// Instrument registers the WAL metric families on reg and points the
// hooks at them.
func Instrument(reg *obs.Registry) {
	M = Metrics{
		Appends: reg.Counter("drm_wal_appends_total",
			"Issuance records appended to WAL stores."),
		Fsyncs: reg.Counter("drm_wal_fsyncs_total",
			"Fsyncs of active WAL segments."),
		FsyncSeconds: reg.Histogram("drm_wal_fsync_seconds",
			"Latency of one WAL segment fsync.", nil),
		Rotations: reg.Counter("drm_wal_segment_rotations_total",
			"WAL segment rotations."),
		Segments: reg.Gauge("drm_wal_segments",
			"Live WAL segment files."),
		SegmentsCompacted: reg.Counter("drm_wal_segments_compacted_total",
			"WAL segment files retired by online compaction."),
		CompactionErrors: reg.Counter("drm_wal_compaction_errors_total",
			"WAL compaction passes that failed to retire covered segments."),
		Snapshots: reg.Counter("drm_wal_snapshots_total",
			"WAL snapshots installed."),
		SnapshotSeconds: reg.Histogram("drm_wal_snapshot_seconds",
			"Wall time of one WAL snapshot install.", nil),
		SnapshotRecords: reg.Gauge("drm_wal_snapshot_records",
			"Compacted record count of the latest WAL snapshot."),
		SnapshotUnix: reg.Gauge("drm_wal_snapshot_timestamp_seconds",
			"Unix time of the latest WAL snapshot install."),
		RecoverySeconds: reg.FloatGauge("drm_wal_recovery_seconds",
			"Wall time of the last WAL open (snapshot load + tail replay + repair)."),
		TruncatedBytes: reg.Counter("drm_wal_truncated_bytes_total",
			"Torn-tail bytes removed during WAL recovery."),
	}
}
