package obs

import "time"

// This file defines the domain metric bundles the host packages hang
// their instrumentation on. Each bundle is installed with hdc's
// SetMetrics or SetServingMetrics; the default nil pointer disables
// recording, and every method is nil-safe so the instrumented call
// sites stay branchless beyond one compare.

// InferenceMetrics instruments hdc's Predict and PredictCtx.
type InferenceMetrics struct {
	// PredictNanos is Predict latency; its count is the call count.
	PredictNanos Histogram
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
