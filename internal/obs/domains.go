package obs

import "time"

// This file defines the domain metric bundles the host packages hang
// their instrumentation on. Each bundle is installed with the
// package's SetMetrics (hdc, stream, parallel); the default nil
// pointer disables recording, and every method is nil-safe so the
// instrumented call sites stay branchless beyond one compare.

// InferenceMetrics instruments hdc.Predict and PredictBatch.
type InferenceMetrics struct {
	// PredictNanos is Predict latency; its count is the call count.
	PredictNanos Histogram
	// BatchWindows counts the windows PredictBatch classified;
	// BatchNanos is whole-call latency.
	BatchWindows Counter
	BatchNanos   Histogram
	// BatchSerialFallbacks counts batch calls that ran without a
	// worker pool (nil pool — the serial fallback path).
	BatchSerialFallbacks Counter
	// EncodeNanos / SearchNanos split instrumented per-request
	// predicts into the paper's two stages — window encoding vs AM
	// search — the per-stage lens of Table 3, per serving request.
	EncodeNanos Histogram
	SearchNanos Histogram
}

// RecordStages folds one staged predict (encode, then search) into
// the per-stage histograms.
func (m *InferenceMetrics) RecordStages(encode, search time.Duration) {
	if m == nil {
		return
	}
	m.EncodeNanos.Observe(encode)
	m.SearchNanos.Observe(search)
}

// RecordPredict folds one Predict call into the metrics.
func (m *InferenceMetrics) RecordPredict(d time.Duration) {
	if m == nil {
		return
	}
	m.PredictNanos.Observe(d)
}

// RecordBatch folds one PredictBatch call over n windows into the
// metrics; serial marks the nil-pool fallback.
func (m *InferenceMetrics) RecordBatch(n int, serial bool, d time.Duration) {
	if m == nil {
		return
	}
	m.BatchWindows.Add(int64(n))
	m.BatchNanos.Observe(d)
	if serial {
		m.BatchSerialFallbacks.Inc()
	}
}

// StreamMetrics instruments stream.Push and Replay.
type StreamMetrics struct {
	// Samples counts samples pushed (directly or via Replay);
	// Decisions counts decisions emitted.
	Samples   Counter
	Decisions Counter
	// ReplayNanos is Replay call latency.
	ReplayNanos Histogram
	// PredictFailures counts pushed windows whose prediction panicked
	// (e.g. a serving model with no classes yet) and were dropped
	// instead of killing the stream.
	PredictFailures Counter
}

// RecordSample counts one pushed sample.
func (m *StreamMetrics) RecordSample() {
	if m == nil {
		return
	}
	m.Samples.Inc()
}

// RecordDecision counts one emitted decision.
func (m *StreamMetrics) RecordDecision() {
	if m == nil {
		return
	}
	m.Decisions.Inc()
}

// RecordReplay folds one Replay call (samples consumed, decisions
// emitted, wall time) into the metrics.
func (m *StreamMetrics) RecordReplay(samples, decisions int, d time.Duration) {
	if m == nil {
		return
	}
	m.Samples.Add(int64(samples))
	m.Decisions.Add(int64(decisions))
	m.ReplayNanos.Observe(d)
}

// RecordPredictFailure counts one dropped decision whose prediction
// panicked.
func (m *StreamMetrics) RecordPredictFailure() {
	if m == nil {
		return
	}
	m.PredictFailures.Inc()
}

// ServingMetrics instruments the online-learning serving layer: the
// copy-on-write model generations of hdc.Serving and the requests of
// the /predict–/learn HTTP front end. The published model's own state
// (generation, classes, footprint) is per model, in RegistryMetrics.
type ServingMetrics struct {
	// LearnNanos is the time from encode to generation publish of each
	// Learn/Retrain; its count is the publication count.
	LearnNanos Histogram
	// Requests counts /predict and /learn requests; Rejected counts
	// the ones refused (429 backpressure, malformed bodies, draining).
	Requests Counter
	Rejected Counter
	// Timeouts counts predict requests answered 504 because the
	// per-request deadline expired before the predict ran.
	Timeouts Counter
	// Retries counts predict attempts re-run after a recovered
	// transient failure (the bounded-backoff retry loop).
	Retries Counter
	// PanicsRecovered counts predict panics converted into retries or
	// 500 responses instead of process death.
	PanicsRecovered Counter
	// DegradedScans counts predicts that lost a shard mid-search and
	// fell back to the flat associative-memory scan.
	DegradedScans Counter
}

// RecordTimeout counts one predict request that hit its deadline.
func (m *ServingMetrics) RecordTimeout() {
	if m == nil {
		return
	}
	m.Timeouts.Inc()
}

// RecordRetry counts one re-attempted predict.
func (m *ServingMetrics) RecordRetry() {
	if m == nil {
		return
	}
	m.Retries.Inc()
}

// RecordPanicRecovered counts one panic converted into an error
// response.
func (m *ServingMetrics) RecordPanicRecovered() {
	if m == nil {
		return
	}
	m.PanicsRecovered.Inc()
}

// RecordDegraded counts one flat-scan fallback after a shard failure.
func (m *ServingMetrics) RecordDegraded() {
	if m == nil {
		return
	}
	m.DegradedScans.Inc()
}

// RecordPublish folds one generation publication that took d into
// the metrics.
func (m *ServingMetrics) RecordPublish(d time.Duration) {
	if m == nil {
		return
	}
	m.LearnNanos.Observe(d)
}

// RecordRequest counts one serving request. Requests counts every
// request; rejected ones (backpressure, malformed bodies) count in
// Rejected too.
func (m *ServingMetrics) RecordRequest(accepted bool) {
	if m == nil {
		return
	}
	m.Requests.Inc()
	if !accepted {
		m.Rejected.Inc()
	}
}

// FaultMetrics instruments the fault-injection layer (internal/fault):
// how many corruption calls ran and how many bits they flipped.
type FaultMetrics struct {
	// Injections counts corruption calls that had injection enabled
	// (BER > 0); FlippedBits counts the bits they actually flipped.
	Injections  Counter
	FlippedBits Counter
}

// RecordInjection folds one corruption call that flipped n bits.
func (m *FaultMetrics) RecordInjection(n int) {
	if m == nil {
		return
	}
	m.Injections.Inc()
	m.FlippedBits.Add(int64(n))
}

// PoolMetrics instruments parallel.Pool collectives.
type PoolMetrics struct {
	// Collectives counts collective calls; Tasks counts the chunks
	// they actually dispatched (including the caller's chunk 0) and
	// Slots the chunks they could have dispatched (pool width), so
	// Tasks/Slots is the mean worker utilization.
	Collectives Counter
	Tasks       Counter
	Slots       Counter
	// SerialFallbacks counts collectives that ran entirely on the
	// calling goroutine (single chunk, or a closed pool).
	SerialFallbacks Counter
}

// RecordCollective folds one collective that ran active of workers
// possible chunks into the metrics.
func (m *PoolMetrics) RecordCollective(active, workers int) {
	if m == nil {
		return
	}
	m.Collectives.Inc()
	m.Tasks.Add(int64(active))
	m.Slots.Add(int64(workers))
	if active <= 1 {
		m.SerialFallbacks.Inc()
	}
}
