package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"pulphd/internal/obs"
	"pulphd/internal/obs/flight"
)

// TestPredictTimeout pins the per-request deadline: a 1 ns deadline
// has always expired by the time the decoded request reaches its
// first predict attempt, so the handler answers 504 and counts the
// timeout; with the deadline lifted the same request gets 200.
func TestPredictTimeout(t *testing.T) {
	sv := trainedServing(t, 2)
	m := &obs.ServingMetrics{}
	api := newEphemeralAPI(t, sv, 4, m)
	api.timeout = time.Nanosecond
	srv := serveAPI(t, api)

	code, body := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504 (%s)", code, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Fatalf("504 body does not name the deadline: %s", body)
	}
	if m.Timeouts.Value() != 1 {
		t.Fatalf("timeouts counter %d, want 1", m.Timeouts.Value())
	}

	api.timeout = 0
	code, body = postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2))
	if code != http.StatusOK {
		t.Fatalf("after timeout: status %d, want 200 (%s)", code, body)
	}
	if m.Timeouts.Value() != 1 {
		t.Fatalf("timeouts counter moved to %d on a healthy request", m.Timeouts.Value())
	}
}

// logHook is a slog handler that runs fn on every record, letting a
// test act at the moment the server logs an event.
type logHook struct {
	slog.Handler
	fn func(slog.Record)
}

func (h logHook) Handle(_ context.Context, r slog.Record) error {
	h.fn(r)
	return nil
}

// TestPredictPanicRecovery pins the bounded-retry contract: a predict
// attempt that panics is recovered and retried, and the retry succeeds
// — the caller sees a normal answer with the retry trigger raised, the
// counters see the incident. The window's short row panics inside
// encode; the recovery's log line repairs it, so exactly one retry
// runs.
func TestPredictPanicRecovery(t *testing.T) {
	sv := trainedServing(t, 2)
	m := &obs.ServingMetrics{}
	api := newEphemeralAPI(t, sv, 4, m)
	window := [][]float64{{2}}
	api.log = slog.New(logHook{
		Handler: slog.NewTextHandler(io.Discard, nil),
		fn: func(r slog.Record) {
			if r.Message == "predict panic recovered" {
				window[0] = testWindow(sv.Config(), 2)[0]
			}
		},
	})

	res, err := api.predict(context.Background(), sv, window, time.Now())
	if err != nil {
		t.Fatalf("predict after recovery failed: %v", err)
	}
	if res.label != "rest" {
		t.Fatalf("label %q, want %q", res.label, "rest")
	}
	if res.trig&flight.TrigRetry == 0 {
		t.Fatalf("retried predict lacks the retry trigger: %v", res.trig)
	}
	if m.PanicsRecovered.Value() != 1 || m.Retries.Value() != 1 {
		t.Fatalf("panics=%d retries=%d, want 1/1", m.PanicsRecovered.Value(), m.Retries.Value())
	}
}

// TestPredictRetriesExhausted pins the failure shape when every retry
// panics: the request fails with errPredictPanic (mapped to 500 by the
// handler), the process survives, and the counters account for every
// attempt.
func TestPredictRetriesExhausted(t *testing.T) {
	sv := trainedServing(t, 2)
	m := &obs.ServingMetrics{}
	api := newEphemeralAPI(t, sv, 4, m)
	api.retries = 1
	api.retryBackoff = 0

	// A malformed window (short rows) panics inside encode on every
	// attempt; validation normally rejects it at the handler, so this
	// simulates a poisoned model rather than bad input.
	_, err := api.predict(context.Background(), sv, [][]float64{{1}}, time.Now())
	if err == nil {
		t.Fatal("poisoned predict returned no error")
	}
	if !errors.Is(err, errPredictPanic) {
		t.Fatalf("error %v does not wrap errPredictPanic", err)
	}
	if m.PanicsRecovered.Value() != 2 || m.Retries.Value() != 1 {
		t.Fatalf("panics=%d retries=%d, want 2/1", m.PanicsRecovered.Value(), m.Retries.Value())
	}
}
