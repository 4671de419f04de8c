// Package obs is the observability layer of the reproduction: cycle
// tracing for the platform simulator and runtime metrics for the host
// inference path.
//
// The two halves mirror the two engines of DESIGN.md §7. A Trace
// attaches to pulp.Platform and records every KernelResult the
// simulator produces — per platform and core count, split into
// compute / serial / runtime / visible-DMA / hidden-DMA lanes — and
// exports Chrome trace-event JSON (chrome://tracing, Perfetto) plus a
// plain-text summary, making the paper's Table 2/3 cycle accounting
// inspectable event by event. The metric types (Counter, Histogram
// and the domain bundles in domains.go) instrument the host serving
// path (hdc predicts and learns, the HTTP edge, the model registry)
// and export through expvar and a Prometheus-style text endpoint.
//
// Everything is off by default and nil-safe: a nil *Counter,
// *Histogram or domain-metrics pointer is a no-op, so instrumented
// code pays one pointer compare when observability is disabled and
// performs no heap allocation either way.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing, allocation-free atomic
// counter. The zero value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways (model
// generation, class count, queue depth). The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (useful for depth-style gauges).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value; 0 for a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistogramBuckets is the fixed bucket count of every Histogram.
// Bucket 0 holds [0, 256 ns] and bucket i holds (256<<(i-1), 256<<i]
// ns, so the last finite bound is 256ns·2²² ≈ 1.07 s; the final bucket
// is the +Inf overflow. Fixed geometry keeps Observe allocation-free
// and the exposition format stable.
const HistogramBuckets = 24

// histBase is the upper bound of bucket 0 in nanoseconds.
const histBase = 256

// Histogram is a fixed-bucket latency histogram with powers-of-two
// bounds (see HistogramBuckets). It observes nanoseconds and the
// registry exports it in seconds. The zero value is ready to use; a
// nil *Histogram is a no-op.
type Histogram struct {
	counts [HistogramBuckets]atomic.Int64
	sum    atomic.Int64
}

// bucketFor maps a nanosecond value to its bucket index; bounds are
// inclusive, as Prometheus reads le.
func bucketFor(ns int64) int {
	if ns <= histBase {
		return 0
	}
	idx := bits.Len64(uint64(ns-1) / histBase)
	if idx >= HistogramBuckets {
		idx = HistogramBuckets - 1
	}
	return idx
}

// BucketBound returns the inclusive upper bound of bucket i in
// nanoseconds, or -1 for the +Inf overflow bucket.
func BucketBound(i int) int64 {
	if i >= HistogramBuckets-1 {
		return -1
	}
	return histBase << i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one nanosecond measurement.
func (h *Histogram) ObserveNanos(ns int64) {
	if h == nil {
		return
	}
	h.counts[bucketFor(ns)].Add(1)
	h.sum.Add(ns)
}

// HistogramSnapshot is an internally consistent copy of a histogram
// for export: Count is derived from the bucket counts read into
// Counts, so Count always equals the cumulative +Inf bucket that the
// Prometheus exposition writes — even when the snapshot is taken
// mid-update. SumNs is read separately and may be off by the handful
// of in-flight observations; the structural invariant the scrape
// format needs — Σ Counts == Count — holds by construction.
type HistogramSnapshot struct {
	Counts [HistogramBuckets]int64
	SumNs  int64
	Count  int64
}

// Snapshot copies the current state; the zero snapshot for nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.SumNs = h.sum.Load()
	return s
}
