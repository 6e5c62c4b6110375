package obs

import (
	"os"
	"runtime"
	"time"
)

// RuntimeSample is one reading of the process-level signals /v1/status
// reports: Go runtime state (GC, heap, goroutines), file descriptors,
// and the WAL fsync backlog (appends not yet covered by a completed
// fsync — the durability lag an interval fsync policy accumulates).
type RuntimeSample struct {
	UnixNanos           int64   `json:"unix_ns"`
	Goroutines          int     `json:"goroutines"`
	HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes        uint64  `json:"heap_sys_bytes"`
	GCCycles            uint32  `json:"gc_cycles"`
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
	LastGCPauseSeconds  float64 `json:"last_gc_pause_seconds"`
	// OpenFDs is read from /proc/self/fd; -1 where that is unavailable.
	OpenFDs         int   `json:"open_fds"`
	WALFsyncBacklog int64 `json:"wal_fsync_backlog"`
}

// Runtime samples process telemetry into gauges on demand; the server
// calls Sample on every /metrics scrape and /v1/status request, so the
// gauges are as fresh as their reader. All methods are nil-safe.
type Runtime struct {
	// backlog reports the WAL fsync backlog (nil when no WAL).
	backlog func() int64

	goroutines *Gauge
	heapAlloc  *Gauge
	heapSys    *Gauge
	gcCycles   *Gauge
	gcPause    *FloatGauge
	openFDs    *Gauge
	walBacklog *Gauge
}

// NewRuntime registers the drm_runtime_* gauges on reg and returns the
// collector. backlog may be nil.
func NewRuntime(reg *Registry, backlog func() int64) *Runtime {
	r := &Runtime{backlog: backlog}
	if reg != nil {
		r.goroutines = reg.Gauge("drm_runtime_goroutines", "Live goroutines.")
		r.heapAlloc = reg.Gauge("drm_runtime_heap_alloc_bytes", "Bytes of allocated heap objects.")
		r.heapSys = reg.Gauge("drm_runtime_heap_sys_bytes", "Bytes of heap obtained from the OS.")
		r.gcCycles = reg.Gauge("drm_runtime_gc_cycles_total", "Completed GC cycles.")
		r.gcPause = reg.FloatGauge("drm_runtime_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
		r.openFDs = reg.Gauge("drm_runtime_open_fds", "Open file descriptors (-1 when unreadable).")
		r.walBacklog = reg.Gauge("drm_wal_fsync_backlog", "WAL records appended but not yet covered by a completed fsync.")
	}
	return r
}

// Sample reads the runtime, updates the gauges, and returns the
// reading. Nil-safe (zero sample).
func (r *Runtime) Sample() RuntimeSample {
	if r == nil {
		return RuntimeSample{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := RuntimeSample{
		UnixNanos:           time.Now().UnixNano(),
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      ms.HeapAlloc,
		HeapSysBytes:        ms.HeapSys,
		GCCycles:            ms.NumGC,
		GCPauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
		OpenFDs:             countOpenFDs(),
	}
	if ms.NumGC > 0 {
		s.LastGCPauseSeconds = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	if r.backlog != nil {
		s.WALFsyncBacklog = r.backlog()
	}
	r.goroutines.Set(int64(s.Goroutines))
	r.heapAlloc.Set(int64(s.HeapAllocBytes))
	r.heapSys.Set(int64(s.HeapSysBytes))
	r.gcCycles.Set(int64(s.GCCycles))
	r.gcPause.Set(s.GCPauseTotalSeconds)
	r.openFDs.Set(int64(s.OpenFDs))
	r.walBacklog.Set(s.WALFsyncBacklog)
	return s
}

// countOpenFDs counts entries in /proc/self/fd; -1 where the procfs
// view does not exist (non-Linux).
func countOpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	// The ReadDir handle itself is open during the listing; do not count it.
	return len(ents) - 1
}
