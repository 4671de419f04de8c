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
	im.RecordStages(time.Millisecond, time.Millisecond)
	var g *Gauge
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	var svm *ServingMetrics
	svm.RecordPublish(time.Millisecond)
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
	m.RecordPublish(time.Millisecond)
	m.RecordRequest(true)
	m.RecordRequest(true)
	m.RecordRequest(false)
	if s := m.LearnNanos.Snapshot(); s.Count != 1 || s.SumNs != int64(time.Millisecond) {
		t.Fatalf("learn latency count/sum %d/%d, want 1/%d", s.Count, s.SumNs, time.Millisecond)
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
		{0, 0}, {255, 0}, {256, 0}, {257, 1}, {511, 1}, {512, 1}, {513, 2},
		{1 << 20, 12}, {1<<20 + 1, 13}, {1 << 62, HistogramBuckets - 1}, {-5, 0},
	}
	for _, tc := range cases {
		if got := bucketFor(tc.ns); got != tc.bucket {
			t.Errorf("bucketFor(%d) = %d, want %d", tc.ns, got, tc.bucket)
		}
		h.ObserveNanos(tc.ns)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count %d, want %d", s.Count, len(cases))
	}
	// Bounds double from 256 ns, each is inclusive (the bound itself
	// lands in its bucket, one more in the next), and the last is +Inf.
	for i := 0; i < HistogramBuckets-1; i++ {
		b := BucketBound(i)
		if b != histBase<<i {
			t.Fatalf("bucket %d bound %d, want %d", i, b, histBase<<i)
		}
		if bucketFor(b) != i || bucketFor(b+1) != i+1 {
			t.Fatalf("bound %d: buckets %d/%d, want %d/%d", b, bucketFor(b), bucketFor(b+1), i, i+1)
		}
	}
	if BucketBound(HistogramBuckets-1) != -1 {
		t.Fatal("last bucket is not +Inf")
	}
	if s.SumNs <= 0 {
		t.Fatalf("sum %d", s.SumNs)
	}
}

// TestObserveAllocationFree pins the hot-path contract: recording
// into live metrics allocates nothing.
func TestObserveAllocationFree(t *testing.T) {
	h := NewHostMetrics()
	allocs := testing.AllocsPerRun(100, func() {
		h.Inference.RecordPredict(1500 * time.Nanosecond)
		h.Inference.RecordStages(time.Microsecond, time.Microsecond)
		h.Serving.RecordRequest(true)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %v times per run, want 0", allocs)
	}
}

func TestPrometheusExposition(t *testing.T) {
	h := NewHostMetrics()
	h.Inference.RecordPredict(1500 * time.Nanosecond)
	h.Serving.RecordPublish(time.Microsecond)
	var buf bytes.Buffer
	if err := h.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"pulphd_serving_learn_latency_seconds_count 1",
		"pulphd_serving_learn_latency_seconds_sum 1e-06",
		"# TYPE pulphd_predict_latency_seconds histogram",
		`pulphd_predict_latency_seconds_bucket{le="1.024e-06"} 0`,
		`pulphd_predict_latency_seconds_bucket{le="2.048e-06"} 1`,
		`pulphd_predict_latency_seconds_bucket{le="+Inf"} 1`,
		"pulphd_predict_latency_seconds_sum 1.5e-06",
		"pulphd_predict_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Histogram bucket counts must be cumulative: the +Inf bucket of
	// the learn histogram equals its count.
	if !strings.Contains(out, `pulphd_serving_learn_latency_seconds_bucket{le="+Inf"} 1`) {
		t.Error("learn histogram +Inf bucket is not cumulative")
	}
}

// TestHistogramLeInclusive pins the exported bucket bounds to the
// Prometheus reading of le as an inclusive upper bound: an observation
// of exactly 256 ns counts under le="2.56e-07", one of exactly 512 ns
// under le="5.12e-07".
func TestHistogramLeInclusive(t *testing.T) {
	h := NewHostMetrics()
	h.Models.RecordWALFsync(256 * time.Nanosecond)
	h.Models.RecordWALFsync(512 * time.Nanosecond)
	var buf bytes.Buffer
	if err := h.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`pulphd_registry_wal_fsync_seconds_bucket{le="2.56e-07"} 1`,
		`pulphd_registry_wal_fsync_seconds_bucket{le="5.12e-07"} 2`,
		"pulphd_registry_wal_fsync_seconds_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
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
	h.Serving.RecordRequest(false)
	h.Serving.RecordPublish(2 * time.Millisecond)
	snap := h.Registry.Snapshot()
	if got := snap["pulphd_serving_requests_total"]; got != int64(1) {
		t.Fatalf("snapshot requests %v", got)
	}
	hist, ok := snap["pulphd_serving_learn_latency_seconds"].(map[string]any)
	if !ok || hist["count"] != int64(1) || hist["sum_seconds"] != 0.002 {
		t.Fatalf("snapshot histogram %v", snap["pulphd_serving_learn_latency_seconds"])
	}
	// Publishing twice under one name must not panic.
	h.Registry.PublishExpvar("pulphd_test_metrics")
	h.Registry.PublishExpvar("pulphd_test_metrics")
	if len(h.Registry.sortedNames()) < 10 {
		t.Fatalf("registry holds %d names", len(h.Registry.sortedNames()))
	}
}
