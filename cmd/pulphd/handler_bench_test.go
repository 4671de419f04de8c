package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
	"pulphd/internal/obs/flight"
	sloeng "pulphd/internal/obs/slo"
)

// handlerAPI builds the serve-default shape the handler cost is pinned
// on: a registry-backed server over an EMG-geometry model with 5
// classes in one shard (the flat scan), request timelines, the flight
// ring and the SLO engine all on. It returns the server and one valid
// /predict body.
func handlerAPI(tb testing.TB) (*apiServer, []byte) {
	tb.Helper()
	cfg := hdc.EMGConfig()
	sv, err := hdc.NewServing(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var samples []hdc.Sample
	for c, label := range []string{"rest", "fist", "point", "pinch", "spread"} {
		samples = append(samples, hdc.Sample{Label: label, Window: testWindow(cfg, float64(4*c+1))})
	}
	if err := sv.Retrain(nil, samples); err != nil {
		tb.Fatal(err)
	}
	api := newEphemeralAPI(tb, sv, 128, nil)
	api.timelines = obs.NewTimelines(32, 64)
	api.flight = flight.NewRing(128, 64)
	api.slo = sloeng.New(sloeng.Config{
		Default: sloeng.Objective{Latency: time.Hour, LatencyTarget: 0.99, ErrorBudget: 0.01},
	})
	body, err := json.Marshal(predictRequest{Window: testWindow(cfg, 5)})
	if err != nil {
		tb.Fatal(err)
	}
	return api, body
}

// servePredict runs one in-process /predict through the handler.
func servePredict(tb testing.TB, api *apiServer, body []byte) {
	w := httptest.NewRecorder()
	api.handlePredict(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		tb.Fatalf("predict: %d %s", w.Code, w.Body.String())
	}
}

// BenchmarkPredictHandler measures one /predict through the handler
// in-process — decode, admission, encode, AM search,
// observability and the JSON answer — with no network in the way.
func BenchmarkPredictHandler(b *testing.B) {
	api, body := handlerAPI(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePredict(b, api, body)
	}
}
