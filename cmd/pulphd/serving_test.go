package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
	modreg "pulphd/internal/registry"
)

// testServingConfig keeps the handler tests fast.
func testServingConfig() hdc.Config {
	cfg := hdc.EMGConfig()
	cfg.D = 640
	return cfg
}

// testWindow builds a full-shape window whose channels sit at the
// given level.
func testWindow(cfg hdc.Config, level float64) [][]float64 {
	w := make([][]float64, cfg.Window)
	for t := range w {
		row := make([]float64, cfg.Channels)
		for c := range row {
			row[c] = level
		}
		w[t] = row
	}
	return w
}

// newEphemeralAPI serves sv as the "default" model of an in-memory
// registry — the shape every single-model test runs on. maxInFlight is
// the 429 admission bound; m may be nil.
func newEphemeralAPI(t testing.TB, sv *hdc.Serving, maxInFlight int, m *obs.ServingMetrics) *apiServer {
	t.Helper()
	reg, err := modreg.Open(modreg.Config{Shards: sv.Shards()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if err := reg.Adopt("default", sv); err != nil {
		t.Fatal(err)
	}
	api, err := newAPIServer(reg, "default", sv.Config(), maxInFlight, m)
	if err != nil {
		t.Fatal(err)
	}
	return api
}

// serveAPI mounts api's routes behind the production connection loop,
// which closes at cleanup.
func serveAPI(t testing.TB, api *apiServer) *testServer {
	t.Helper()
	mux := http.NewServeMux()
	api.register(mux)
	srv := newTestServer(t, mux)
	return srv
}

// newTestAPI serves a trained two-class model (four configured shards,
// so the AM splits into two) behind the production connection loop.
func newTestAPI(t *testing.T) (*apiServer, *testServer, *hdc.Serving) {
	t.Helper()
	sv := trainedServing(t, 4)
	api := newEphemeralAPI(t, sv, 8, nil)
	return api, serveAPI(t, api), sv
}

func postJSON(t *testing.T, srv *testServer, path, body string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func windowJSON(t testing.TB, cfg hdc.Config, level float64) string {
	t.Helper()
	data, err := json.Marshal(predictRequest{Window: testWindow(cfg, level)})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestPredictHandler(t *testing.T) {
	_, srv, _ := newTestAPI(t)
	cfg := testServingConfig()
	cases := []struct {
		name      string
		body      string
		wantCode  int
		wantLabel string
	}{
		{"rest window", windowJSON(t, cfg, 2), 200, "rest"},
		{"fist window", windowJSON(t, cfg, 16), 200, "fist"},
		{"empty body", "", 400, ""},
		{"not json", "not json", 400, ""},
		{"wrong shape", `{"window": [[1, 2]]}`, 400, ""},
		{"empty window", `{"window": []}`, 400, ""},
		{"unknown field", `{"win": [[1, 2, 3, 4]]}`, 400, ""},
		{"trailing data", windowJSON(t, cfg, 2) + "{}", 400, ""},
		{"huge number", `{"window": [[1e999, 2, 3, 4]]}`, 400, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, srv, "/predict", tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", code, tc.wantCode, body)
			}
			if tc.wantCode != 200 {
				var e map[string]string
				if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
					t.Fatalf("error response lacks an error field: %s", body)
				}
				return
			}
			var res predictResponse
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatal(err)
			}
			if res.Label != tc.wantLabel {
				t.Fatalf("label %q, want %q", res.Label, tc.wantLabel)
			}
			if res.Distance < 0 || res.Distance > cfg.D {
				t.Fatalf("distance %d out of range", res.Distance)
			}
		})
	}
	// Wrong method.
	resp, err := srv.Client().Get(srv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: %d, want 405", resp.StatusCode)
	}
}

func TestLearnHandler(t *testing.T) {
	_, srv, sv := newTestAPI(t)
	cfg := sv.Config()
	gen := sv.Generation()

	// Teach a third gesture, then predict it.
	body, err := json.Marshal(learnRequest{Label: "point", Window: testWindow(cfg, 9)})
	if err != nil {
		t.Fatal(err)
	}
	code, resBody := postJSON(t, srv, "/learn", string(body))
	if code != 200 {
		t.Fatalf("learn: status %d (%s)", code, resBody)
	}
	var res learnResponse
	if err := json.Unmarshal([]byte(resBody), &res); err != nil {
		t.Fatal(err)
	}
	if res.Generation != gen+1 || res.Classes != 3 {
		t.Fatalf("learn response %+v, want generation %d and 3 classes", res, gen+1)
	}
	code, resBody = postJSON(t, srv, "/predict", windowJSON(t, cfg, 9))
	if code != 200 {
		t.Fatalf("predict after learn: status %d", code)
	}
	var pred predictResponse
	if err := json.Unmarshal([]byte(resBody), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Label != "point" {
		t.Fatalf("learned gesture classified as %q", pred.Label)
	}
	if pred.Generation != gen+1 {
		t.Fatalf("predict reports generation %d, want %d", pred.Generation, gen+1)
	}

	for _, tc := range []struct{ name, body string }{
		{"empty label", `{"label": "", "window": [[1, 2, 3, 4]]}`},
		{"bad window", `{"label": "x", "window": [[1]]}`},
		{"not json", "{"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, body := postJSON(t, srv, "/learn", tc.body); code != 400 {
				t.Fatalf("status %d, want 400 (%s)", code, body)
			}
		})
	}
}

// TestPredictQueueOverflow pins the backpressure contract: with the
// in-flight bound saturated, /predict sheds load with 429 and counts
// the rejection.
func TestPredictQueueOverflow(t *testing.T) {
	sv, err := hdc.NewServing(testServingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Retrain(nil, []hdc.Sample{{Label: "rest", Window: testWindow(sv.Config(), 2)}}); err != nil {
		t.Fatal(err)
	}
	m := &obs.ServingMetrics{}
	api := newEphemeralAPI(t, sv, 1, m)
	api.inFlight.Store(1) // one predict already running: everything sheds
	srv := serveAPI(t, api)

	code, body := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", code, body)
	}
	if m.Rejected.Value() != 1 || m.Requests.Value() != 1 {
		t.Fatalf("rejected=%d requests=%d, want 1/1", m.Rejected.Value(), m.Requests.Value())
	}
}

// TestPredictNoModel pins the empty-model behavior: 409, not a panic.
func TestPredictNoModel(t *testing.T) {
	sv, err := hdc.NewServing(testServingConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := serveAPI(t, newEphemeralAPI(t, sv, 4, nil))
	code, body := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2))
	if code != http.StatusConflict {
		t.Fatalf("status %d, want 409 (%s)", code, body)
	}
}

// TestServingMetricsEndpoint checks the serving gauges and counters
// appear in /metrics and move with learn/predict traffic.
func TestServingMetricsEndpoint(t *testing.T) {
	h := enableHostMetrics()
	t.Cleanup(func() {
		hdc.SetMetrics(nil)
		hdc.SetServingMetrics(nil)
	})
	sv, err := hdc.NewServing(testServingConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := modreg.Open(modreg.Config{Shards: sv.Shards(), Metrics: h.Models})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Adopt("default", sv); err != nil {
		t.Fatal(err)
	}
	api, err := newAPIServer(reg, "default", sv.Config(), 8, h.Serving)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMetricsMux(h)
	api.register(mux)
	srv := newTestServer(t, mux)

	for i, label := range []string{"rest", "fist", "point"} {
		body, _ := json.Marshal(learnRequest{Label: label, Window: testWindow(sv.Config(), float64(2+7*i))})
		if code, res := postJSON(t, srv, "/learn", string(body)); code != 200 {
			t.Fatalf("learn %q: %d (%s)", label, code, res)
		}
	}
	if code, _ := postJSON(t, srv, "/predict", windowJSON(t, sv.Config(), 2)); code != 200 {
		t.Fatal("predict failed")
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(data)
	for _, want := range []string{
		`pulphd_model_generation{model="default"} 3`,
		`pulphd_model_classes{model="default"} 3`,
		"pulphd_serving_learn_latency_seconds_count 3",
		"pulphd_serving_requests_total 4",
		"pulphd_serving_rejected_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if t.Failed() {
		for _, line := range strings.Split(metrics, "\n") {
			if strings.Contains(line, "serving") {
				fmt.Println(line)
			}
		}
	}
}

// TestEvictedDefaultModelReleased pins that the server holds no model
// of its own: once the registry evicts the default model, nothing in
// the apiServer keeps it reachable, so its memory is freed and
// pulphd_registry_resident_bytes stays truthful. The finalizer sits on
// the AM, not the Serving, which forms a cycle with its pooled
// sessions and so is not guaranteed a finalizer run.
func TestEvictedDefaultModelReleased(t *testing.T) {
	reg, err := modreg.Open(modreg.Config{Dir: t.TempDir(), Shards: 2, ResidentBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	sv := trainedServing(t, 2)
	cfg := sv.Config()
	if err := reg.Adopt("default", sv); err != nil {
		t.Fatal(err)
	}
	api, err := newAPIServer(reg, "default", cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	api.timelines = obs.NewTimelines(4, 64)
	srv := serveAPI(t, api)
	if code, body := postJSON(t, srv, "/predict", windowJSON(t, cfg, 2)); code != http.StatusOK {
		t.Fatalf("predict before eviction: %d %s", code, body)
	}

	released := make(chan struct{})
	runtime.SetFinalizer(sv.AM(), func(*hdc.ShardedAM) { close(released) })
	sv = nil
	reg.EnforceBudget()
	if info, err := reg.ModelInfo("default"); err != nil || info.Resident {
		t.Fatalf("default model not evicted: %+v, %v", info, err)
	}
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-released:
		default:
			if i == 50 {
				t.Fatal("evicted default model is still reachable")
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		break
	}

	// The next predict faults the model back in and answers as before.
	code, body := postJSON(t, srv, "/predict", windowJSON(t, cfg, 2))
	if code != http.StatusOK || !strings.Contains(body, `"label":"rest"`) {
		t.Fatalf("predict after eviction: %d %s", code, body)
	}
}
