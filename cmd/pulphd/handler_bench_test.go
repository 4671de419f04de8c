package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
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

// loopbackPredict serves the full `pulphd serve` mux through serve on
// a loopback port until the test ends, and returns one /predict round
// trip over a keep-alive raw-TCP client that writes the request and
// parses the answer; the first round trip has already run.
func loopbackPredict(tb testing.TB, serve func(ln net.Listener, h http.Handler) (stop func())) (roundTrip func()) {
	api, body := handlerAPI(tb)
	mux := newMetricsMux(obs.NewHostMetrics())
	api.register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(serve(ln, mux))
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	req := []byte(rawPost("/predict", "Content-Type: application/json\r\n", string(body)))
	br := bufio.NewReader(c)
	post := &http.Request{Method: http.MethodPost}
	roundTrip = func() {
		if _, err := c.Write(req); err != nil {
			tb.Fatal(err)
		}
		resp, err := http.ReadResponse(br, post)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			tb.Fatalf("predict: %d %v", resp.StatusCode, err)
		}
	}
	roundTrip()
	return roundTrip
}

// benchLoopback times /predict over real loopback TCP, so ns/op is the
// round trip and allocs/op counts both ends.
func benchLoopback(b *testing.B, serve func(ln net.Listener, h http.Handler) (stop func())) {
	roundTrip := loopbackPredict(b, serve)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// serveConnLoop starts the connection loop `pulphd serve` runs.
func serveConnLoop(ln net.Listener, h http.Handler) (stop func()) {
	loop := newConnLoop(h, slog.New(slog.NewTextHandler(io.Discard, nil)))
	go loop.Serve(ln)
	return func() { loop.Close() }
}

// BenchmarkPredictLoopback is the transport stage's micro-benchmark:
// /predict through the connection loop `pulphd serve` runs.
func BenchmarkPredictLoopback(b *testing.B) {
	benchLoopback(b, serveConnLoop)
}

// BenchmarkPredictLoopbackNetHTTP is the same round trip through
// net/http.Server, the reference the connection loop replaced.
func BenchmarkPredictLoopbackNetHTTP(b *testing.B) {
	benchLoopback(b, func(ln net.Listener, h http.Handler) func() {
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		return func() { srv.Close() }
	})
}
