package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pulphd/internal/emg"
	"pulphd/internal/experiments"
	"pulphd/internal/hdc"
)

// silenceStdout redirects os.Stdout to /dev/null for the test's
// duration, so subcommand summaries don't pollute the test log.
func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// TestTraceSubcommand drives "pulphd trace -o" end to end and parses
// the exported file as Chrome trace-event JSON: the acceptance check
// that the CLI artifact, not just the library writer, is loadable.
func TestTraceSubcommand(t *testing.T) {
	silenceStdout(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	if code := runTrace([]string{"-o", path}); code != 0 {
		t.Fatalf("runTrace exited %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Dur   int64          `json:"dur"`
			Pid   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" || len(doc.TraceEvents) == 0 {
		t.Fatalf("degenerate trace: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	platforms := map[string]bool{}
	slices := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name == "process_name" {
				platforms[ev.Args["name"].(string)] = true
			}
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("slice %q has non-positive duration %d", ev.Name, ev.Dur)
			}
			slices++
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if len(platforms) != len(experiments.TracePlatforms()) {
		t.Fatalf("trace names %d platforms, want %d: %v",
			len(platforms), len(experiments.TracePlatforms()), platforms)
	}
	if slices == 0 {
		t.Fatal("no kernel slices in trace")
	}
}

// TestServeEndpoints wires the host metrics exactly as "pulphd serve"
// does, predicts once on the demo-seeded model, and checks all three
// endpoint families respond with moving numbers.
func TestServeEndpoints(t *testing.T) {
	h := enableHostMetrics()
	t.Cleanup(func() {
		hdc.SetMetrics(nil)
		hdc.SetServingMetrics(nil)
	})
	proto := emg.DefaultProtocol()
	proto.Subjects = 1
	proto.Repetitions = 4
	prepared := experiments.Prepare(proto, 1)
	sv, err := newServingModel(prepared, hdc.BackendRemat, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv.PredictCtx(context.Background(), prepared.Subjects[0].Test[0].Window)

	srv := newTestServer(t, newMetricsMux(h))
	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"pulphd_predict_latency_seconds_count 1", "pulphd_predict_encode_latency_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	// Nothing in serve feeds the stream, worker-pool or batch families.
	for _, gone := range []string{"pulphd_stream_", "pulphd_pool_", "pulphd_predict_batch_"} {
		if strings.Contains(metrics, gone) {
			t.Errorf("/metrics still exports %s* families", gone)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["pulphd_metrics"]; !ok {
		t.Error("/debug/vars lacks pulphd_metrics")
	}

	if out := get("/debug/pprof/"); !strings.Contains(out, "profile") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}
