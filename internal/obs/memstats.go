package obs

import "runtime"

// SampleMemStats publishes a point-in-time runtime.MemStats reading into
// volatile gauges on reg. Everything here is inherently wall-side and
// schedule-dependent, so every family is volatile: the values appear in
// full snapshots (-metrics, /metrics scrapes) and never in the
// deterministic report section. The sampler runs only at exposure time —
// a -metrics dump or an HTTP scrape — never from the simulation's
// virtual-clock path, and it reads no clocks itself (walltaint enforces
// that this package stays off time.*).
//
//   - mem_heap_alloc_bytes: live heap at sample time
//   - mem_high_water_bytes: max heap seen across samples (Gauge.Max, so
//     repeated scrapes keep the high-water mark)
//   - mem_heap_sys_bytes, mem_total_alloc_bytes, mem_gc_cycles_total:
//     the usual capacity/churn companions
func SampleMemStats(reg *Registry) {
	if reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.VolatileGauge("mem_heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	reg.VolatileGauge("mem_high_water_bytes").Max(int64(ms.HeapAlloc))
	reg.VolatileGauge("mem_heap_sys_bytes").Set(int64(ms.HeapSys))
	reg.VolatileGauge("mem_total_alloc_bytes").Set(int64(ms.TotalAlloc))
	reg.VolatileGauge("mem_gc_cycles_total").Set(int64(ms.NumGC))
}
