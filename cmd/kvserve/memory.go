// Memory observability: INFO "# memory" and the addrkv_go_* /
// addrkv_wal_pending_* gauges. The Go heap numbers come from
// runtime/metrics, which reads the runtime's counters without stopping
// the world (unlike runtime.ReadMemStats), so an INFO or a scrape under
// load costs the data path nothing.
package main

import "runtime/metrics"

// memSamples names the runtime/metrics series the section reports, in
// memStats field order.
var memSamples = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

// memStats is one read of the process's memory state. The Go heap
// fields count since process start (RESETSTATS does not touch them):
// diff two reads to see what a phase allocated and how many GC cycles
// it ran.
type memStats struct {
	heapLive   uint64 // heap bytes the last GC marked live
	heapGoal   uint64 // heap size at which the next GC starts
	gcCycles   uint64 // completed GC cycles
	allocBytes uint64 // cumulative heap bytes allocated

	walPending    int // WAL bytes encoded but not yet written, all shards
	walPendingMax int // largest single-shard pending high-water mark
}

// readMemStats samples runtime/metrics and the shards' WAL buffers.
func (s *server) readMemStats() memStats {
	samples := make([]metrics.Sample, len(memSamples))
	for i, name := range memSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(i int) uint64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0 // series unknown to this Go release
		}
		return samples[i].Value.Uint64()
	}
	ms := memStats{heapLive: val(0), heapGoal: val(1), gcCycles: val(2), allocBytes: val(3)}
	c := s.sys.Cluster()
	if c.WALAttached() {
		for i := 0; i < c.NumShards(); i++ {
			st := c.WAL(i).Stats()
			ms.walPending += st.PendBytes
			ms.walPendingMax = max(ms.walPendingMax, st.PendMaxBytes)
		}
	}
	return ms
}

// memoryInfo renders the INFO "# memory" section.
func (s *server) memoryInfo(emit func(format string, args ...any)) {
	ms := s.readMemStats()
	emit("# memory\r\n")
	emit("go_heap_live_bytes:%d\r\n", ms.heapLive)
	emit("go_heap_goal_bytes:%d\r\n", ms.heapGoal)
	emit("go_gc_cycles:%d\r\n", ms.gcCycles)
	emit("go_alloc_bytes_total:%d\r\n", ms.allocBytes)
	emit("wal_pending_bytes:%d\r\n", ms.walPending)
	emit("wal_pending_peak_bytes:%d\r\n", ms.walPendingMax)
}

// registerMemoryMetrics exposes the "# memory" fields on /metrics. Each
// gauge reads at scrape time.
func (t *serverTele) registerMemoryMetrics(s *server) {
	gauge := func(name, help string, f func(memStats) float64) {
		t.reg.GaugeFunc(name, help, nil, func() float64 { return f(s.readMemStats()) })
	}
	gauge("addrkv_go_heap_live_bytes", "Go heap bytes marked live by the last GC.",
		func(ms memStats) float64 { return float64(ms.heapLive) })
	gauge("addrkv_go_heap_goal_bytes", "Go heap size at which the next GC starts.",
		func(ms memStats) float64 { return float64(ms.heapGoal) })
	gauge("addrkv_go_gc_cycles_total", "Completed Go GC cycles since process start.",
		func(ms memStats) float64 { return float64(ms.gcCycles) })
	gauge("addrkv_go_alloc_bytes_total", "Cumulative Go heap bytes allocated since process start.",
		func(ms memStats) float64 { return float64(ms.allocBytes) })
	gauge("addrkv_wal_pending_bytes", "AOF bytes encoded but not yet written, summed over shards.",
		func(ms memStats) float64 { return float64(ms.walPending) })
	gauge("addrkv_wal_pending_peak_bytes", "Largest per-shard AOF pending-buffer high-water mark.",
		func(ms memStats) float64 { return float64(ms.walPendingMax) })
}
