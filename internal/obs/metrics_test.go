package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestNilSafety pins the central contract: every metric type and
// domain bundle is a no-op through a nil pointer — instrumented hot
// paths must never have to check for enablement beyond that.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	h.ObserveNanos(42)
	if s := h.Snapshot(); s.Count != 0 || s.SumNs != 0 {
		t.Fatal("nil histogram holds observations")
	}
	var im *InferenceMetrics
	im.RecordPredict(time.Millisecond)
	im.RecordBatch(10, true, time.Millisecond)
	var sm *StreamMetrics
	sm.RecordSample()
	sm.RecordDecision()
	sm.RecordReplay(100, 20, time.Millisecond)
	var pm *PoolMetrics
	pm.RecordCollective(4, 4)
	var g *Gauge
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	var svm *ServingMetrics
	svm.RecordPublish(3, 5, 2, time.Millisecond)
	svm.RecordModel(3, 5, 2)
	svm.RecordRequest(true)
	svm.RecordRequest(false)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(41)
	g.Add(2)
	g.Add(-1)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge %d, want 42", got)
	}
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge %d after Set, want 5", got)
	}
}

func TestServingMetrics(t *testing.T) {
	var m ServingMetrics
	m.RecordModel(1, 5, 4)
	m.RecordPublish(2, 6, 4, time.Millisecond)
	m.RecordRequest(true)
	m.RecordRequest(true)
	m.RecordRequest(false)
	if m.Generation.Value() != 2 || m.Classes.Value() != 6 || m.Shards.Value() != 4 {
		t.Fatalf("gauges %d/%d/%d", m.Generation.Value(), m.Classes.Value(), m.Shards.Value())
	}
	if m.Learns.Value() != 1 {
		t.Fatalf("learns %d, want 1 (RecordModel must not count)", m.Learns.Value())
	}
	if m.Requests.Value() != 3 || m.Rejected.Value() != 1 {
		t.Fatalf("requests/rejected %d/%d, want 3/1 (Requests counts rejected too)", m.Requests.Value(), m.Rejected.Value())
	}
}

// TestHistogramSnapshotConsistentUnderWrites hammers a histogram from
// writer goroutines while snapshotting it: every snapshot must satisfy
// the structural invariant Σ Counts == Count (the cumulative +Inf
// bucket the Prometheus exposition derives), whatever instant it was
// taken at. Run with -race this also proves the export path is
// data-race-free against concurrent updates.
func TestHistogramSnapshotConsistentUnderWrites(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			ns := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.ObserveNanos(ns)
				ns = ns*1664525 + 1013904223
				if ns < 0 {
					ns = -ns
				}
			}
		}(int64(w + 1))
	}
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		var sum int64
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.Count {
			t.Fatalf("snapshot %d inconsistent: Σcounts=%d Count=%d", i, sum, s.Count)
		}
	}
	close(stop)
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {255, 0}, {256, 1}, {511, 1}, {512, 2},
		{1 << 20, 13}, {1 << 62, HistogramBuckets - 1}, {-5, 0},
	}
	for _, tc := range cases {
		if got := bucketFor(tc.ns, histBase); got != tc.bucket {
			t.Errorf("bucketFor(%d) = %d, want %d", tc.ns, got, tc.bucket)
		}
		h.ObserveNanos(tc.ns)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count %d, want %d", s.Count, len(cases))
	}
	// Bounds are monotone and the last is +Inf.
	prev := int64(-1)
	for i := 0; i < HistogramBuckets-1; i++ {
		b := BucketBound(i)
		if b <= prev {
			t.Fatalf("bucket %d bound %d not increasing", i, b)
		}
		prev = b
	}
	if BucketBound(HistogramBuckets-1) != -1 {
		t.Fatal("last bucket is not +Inf")
	}
	if m := s.Mean(); m <= 0 {
		t.Fatalf("mean %f", m)
	}
}

// TestObserveAllocationFree pins the hot-path contract: recording
// into live metrics allocates nothing.
func TestObserveAllocationFree(t *testing.T) {
	h := NewHostMetrics()
	allocs := testing.AllocsPerRun(100, func() {
		h.Inference.RecordPredict(1500 * time.Nanosecond)
		h.Inference.RecordBatch(64, false, time.Millisecond)
		h.Stream.RecordSample()
		h.Stream.RecordDecision()
		h.Pool.RecordCollective(4, 4)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %v times per run, want 0", allocs)
	}
}

func TestPoolUtilization(t *testing.T) {
	var pm PoolMetrics
	pm.RecordCollective(4, 4)
	pm.RecordCollective(2, 4)
	pm.RecordCollective(1, 4) // serial fallback
	if pm.Collectives.Value() != 3 || pm.Tasks.Value() != 7 || pm.Slots.Value() != 12 {
		t.Fatalf("collectives/tasks/slots = %d/%d/%d", pm.Collectives.Value(), pm.Tasks.Value(), pm.Slots.Value())
	}
	if pm.SerialFallbacks.Value() != 1 {
		t.Fatalf("serial fallbacks %d, want 1", pm.SerialFallbacks.Value())
	}
}

func TestPrometheusExposition(t *testing.T) {
	h := NewHostMetrics()
	h.Inference.RecordPredict(1500 * time.Nanosecond)
	h.Inference.RecordBatch(64, true, time.Millisecond)
	h.Serving.RecordPublish(7, 64, 8, time.Microsecond)
	var buf bytes.Buffer
	if err := h.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pulphd_predict_total counter",
		"pulphd_predict_total 1",
		"# TYPE pulphd_serving_generation gauge",
		"pulphd_serving_generation 7",
		"pulphd_serving_classes 64",
		"pulphd_serving_shards 8",
		"pulphd_serving_learns_total 1",
		"pulphd_predict_batch_windows_total 64",
		"pulphd_predict_batch_serial_fallbacks_total 1",
		"# TYPE pulphd_predict_latency_ns histogram",
		`pulphd_predict_latency_ns_bucket{le="+Inf"} 1`,
		"pulphd_predict_latency_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Histogram bucket counts must be cumulative: the +Inf bucket of
	// the batch histogram equals its count.
	if !strings.Contains(out, `pulphd_predict_batch_latency_ns_bucket{le="+Inf"} 1`) {
		t.Error("batch histogram +Inf bucket is not cumulative")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.RegisterCounter("x_total", "", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.RegisterCounter("x_total", "", &c)
}

func TestSnapshotAndExpvar(t *testing.T) {
	h := NewHostMetrics()
	h.Stream.RecordReplay(500, 100, 2*time.Millisecond)
	snap := h.Registry.Snapshot()
	if got := snap["pulphd_stream_samples_total"]; got != int64(500) {
		t.Fatalf("snapshot samples %v", got)
	}
	hist, ok := snap["pulphd_stream_replay_latency_ns"].(map[string]any)
	if !ok || hist["count"] != int64(1) {
		t.Fatalf("snapshot histogram %v", snap["pulphd_stream_replay_latency_ns"])
	}
	// Publishing twice under one name must not panic.
	h.Registry.PublishExpvar("pulphd_test_metrics")
	h.Registry.PublishExpvar("pulphd_test_metrics")
	if len(h.Registry.sortedNames()) < 10 {
		t.Fatalf("registry holds %d names", len(h.Registry.sortedNames()))
	}
}
