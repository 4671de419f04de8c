package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// This file samples the Go runtime through runtime/metrics and
// exposes the serving-relevant signals — GC pause CPU time, goroutine
// count, heap footprint — as scrape-time gauges. Sampling happens on
// the export path only (one metrics.Read per scrape, rate-limited by
// a small cache), so the instrumented hot paths never see it.

// runtimeSamples are the runtime/metrics names the sampler reads.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
}

// runtimeSampler caches one runtime/metrics read briefly so a scrape
// of several gauges costs one Read, not five.
type runtimeSampler struct {
	mu     sync.Mutex
	at     time.Time
	values map[string]float64
	buf    []metrics.Sample
}

// runtimeCacheTTL bounds how stale a scrape can be; scrapes inside
// one TTL share a single metrics.Read.
const runtimeCacheTTL = 100 * time.Millisecond

func newRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{values: map[string]float64{}}
	s.buf = make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s.buf[i].Name = name
	}
	return s
}

// get returns the current value of the named runtime metric,
// refreshing the cached read when it expired. Unknown or unsupported
// metrics read as 0.
func (s *runtimeSampler) get(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.at) > runtimeCacheTTL {
		metrics.Read(s.buf)
		for _, smp := range s.buf {
			switch smp.Value.Kind() {
			case metrics.KindUint64:
				s.values[smp.Name] = float64(smp.Value.Uint64())
			case metrics.KindFloat64:
				s.values[smp.Name] = smp.Value.Float64()
			}
		}
		s.at = time.Now()
	}
	return s.values[name]
}

// RegisterRuntimeMetrics exposes the Go runtime health gauges on r
// under the canonical pulphd_go_* names. Values are sampled at scrape
// time via runtime/metrics.
func RegisterRuntimeMetrics(r *Registry) {
	s := newRuntimeSampler()
	gauge := func(name, help, sample string) {
		r.RegisterGaugeFunc(name, help, func() float64 { return s.get(sample) })
	}
	gauge("pulphd_go_goroutines", "live goroutines", "/sched/goroutines:goroutines")
	gauge("pulphd_go_heap_objects_bytes", "bytes occupied by live plus unswept heap objects", "/memory/classes/heap/objects:bytes")
	gauge("pulphd_go_heap_goal_bytes", "heap size the GC is pacing toward", "/gc/heap/goal:bytes")
	gauge("pulphd_go_gc_cycles", "completed GC cycles since process start", "/gc/cycles/total:gc-cycles")
	gauge("pulphd_go_gc_pause_cpu_seconds", "cumulative CPU time in GC stop-the-world pauses in seconds", "/cpu/classes/gc/pause:cpu-seconds")
}
