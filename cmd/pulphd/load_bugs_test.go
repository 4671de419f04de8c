package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
)

// This file pins the serving-path bugs the load harness exposed:
// the 429 shed path leaking span recorders, the retry backoff
// overflowing into a negative sleep, and timeout storms churning
// recorders instead of recycling them. The fourth, a stale generation
// snapshot misreporting which model a predict scanned, is pinned at
// its source by hdc's TestPredictCtxReportsScannedGeneration.

// trainedServing builds a 2-class serving model for the tests here.
func trainedServing(t testing.TB, shards int) *hdc.Serving {
	t.Helper()
	sv, err := hdc.NewServing(testServingConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	samples := []hdc.Sample{
		{Label: "rest", Window: testWindow(sv.Config(), 2)},
		{Label: "fist", Window: testWindow(sv.Config(), 16)},
	}
	if err := sv.Retrain(nil, samples); err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestShedReleasesRecorder pins the 429 path's recorder hygiene: a
// shed request must end the request/decode spans it opened and file
// its recorder back into the timeline ring. Without that, every shed
// leaks a recorder and the ring stays empty exactly when load (and
// shedding) is highest.
func TestShedReleasesRecorder(t *testing.T) {
	sv := trainedServing(t, 1)
	api := newEphemeralAPI(t, sv, 1, nil)
	api.timelines = obs.NewTimelines(2, 16)
	api.inFlight.Store(1) // one predict already running: everything sheds
	srv := serveAPI(t, api)

	for i := 0; i < 4; i++ {
		code, body := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2))
		if code != http.StatusTooManyRequests {
			t.Fatalf("shed %d: status %d, want 429 (%s)", i, code, body)
		}
	}
	// Every shed request completed, so the ring must hold keep=2
	// timelines (the other two recorders were recycled through the
	// free list).
	if got := api.timelines.Requests(); got != 2 {
		t.Fatalf("timeline ring holds %d requests after 4 sheds, want 2 (recorders leaked)", got)
	}
	// The filed timelines must be complete span trees: request and
	// decode both present and ended.
	w := httptest.NewRecorder()
	api.handleSpans(w, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	spans := w.Body.String()
	for _, want := range []string{`"request"`, `"decode"`} {
		if !json.Valid(w.Body.Bytes()) || !strings.Contains(spans, want) {
			t.Fatalf("shed timeline export lacks %s: %s", want, spans)
		}
	}
}

// TestRetryBackoffSaturates pins the backoff schedule at the overflow
// boundary: doubling stops at maxRetryBackoff and a huge attempt count
// can never shift time.Duration negative (a negative Sleep returns
// immediately — a hot retry loop exactly when the model is panicking).
func TestRetryBackoffSaturates(t *testing.T) {
	api := &apiServer{retryBackoff: 2 * time.Millisecond}
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{0, 2 * time.Millisecond},
		{1, 4 * time.Millisecond},
		{7, 256 * time.Millisecond},
		{8, 512 * time.Millisecond},
		{9, maxRetryBackoff}, // 1024 ms would exceed the 1 s cap
		{62, maxRetryBackoff},
		{63, maxRetryBackoff},
		{1 << 20, maxRetryBackoff},
	} {
		if got := api.backoff(tc.attempt); got != tc.want {
			t.Errorf("backoff(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
	for attempt := 0; attempt < 200; attempt++ {
		if got := api.backoff(attempt); got < 0 {
			t.Fatalf("backoff(%d) = %v, negative", attempt, got)
		}
	}
	api.retryBackoff = 0
	if got := api.backoff(5); got != 0 {
		t.Errorf("backoff with zero base = %v, want 0", got)
	}
	api.retryBackoff = time.Nanosecond
	if got := api.backoff(100); got != maxRetryBackoff {
		t.Errorf("backoff(100) from 1ns = %v, want saturation at %v", got, maxRetryBackoff)
	}
}

// TestTimeoutStormRecorderHygiene pins that a sustained deadline storm
// — every request expired at a 1 ns timeout — leaves the timeline ring
// healthy: each 504 closes and recycles its recorder (no
// allocate-per-request churn, ring fills to its keep bound) and the
// span export stays a valid trace.
func TestTimeoutStormRecorderHygiene(t *testing.T) {
	sv := trainedServing(t, 1)
	api := newEphemeralAPI(t, sv, 64, nil)
	api.timeout = time.Nanosecond
	api.timelines = obs.NewTimelines(4, 64)
	srv := serveAPI(t, api)

	const storm = 30
	for i := 0; i < storm; i++ {
		if code, body := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2)); code != http.StatusGatewayTimeout {
			t.Fatalf("storm request %d: status %d, want 504 (%s)", i, code, body)
		}
	}
	// Every storm request released its recorder: the ring holds keep=4.
	if got := api.timelines.Requests(); got != 4 {
		t.Fatalf("timeline ring holds %d requests, want 4 (expired recorders not recycled)", got)
	}
	w := httptest.NewRecorder()
	api.handleSpans(w, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	if !json.Valid(w.Body.Bytes()) {
		t.Fatalf("span export after storm is not valid JSON: %s", w.Body.String())
	}
}
