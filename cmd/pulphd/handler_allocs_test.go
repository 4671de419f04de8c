// The race detector's sync.Pool drops pooled sessions at random, so
// allocation counts are only meaningful without it.

//go:build !race

package main

import "testing"

// TestPredictHandlerAllocs pins the handler's allocation count on the
// BenchmarkPredictHandler shape, httptest request and recorder
// included. It measured 21 allocs/op, most of them the httptest
// harness (the wire codec decodes and answers without allocating); the
// ceiling leaves one of slack for standard-library drift.
func TestPredictHandlerAllocs(t *testing.T) {
	api, body := handlerAPI(t)
	servePredict(t, api, body) // warm the session pool and recorders
	if allocs := testing.AllocsPerRun(200, func() { servePredict(t, api, body) }); allocs > 22 {
		t.Fatalf("/predict handler allocates %v/op, want ≤ 22", allocs)
	}
}

// TestConnLoopAllocs pins the loopback /predict round trip of
// BenchmarkPredictLoopback, client and connection loop together, so
// that a per-request closure or buffer in the transport shows here. It
// measured 24 allocs/op.
func TestConnLoopAllocs(t *testing.T) {
	roundTrip := loopbackPredict(t, serveConnLoop)
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 24 {
		t.Fatalf("loopback /predict allocates %v/op, want ≤ 24", allocs)
	}
}
