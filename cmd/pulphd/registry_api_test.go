package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"pulphd/internal/hdc"
	modreg "pulphd/internal/registry"
)

// newRegistryTestAPI builds a registry-backed API server over dir with
// a trained "default" model, mirroring what `pulphd serve -state-dir`
// boots.
func newRegistryTestAPI(t *testing.T, dir string) (*apiServer, *testServer, *modreg.Registry) {
	t.Helper()
	reg, err := modreg.Open(modreg.Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if !reg.Has("default") {
		sv, err := hdc.NewServing(testServingConfig(), 2)
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
		if err := reg.Adopt("default", sv); err != nil {
			t.Fatal(err)
		}
	}
	api, err := newAPIServer(reg, "default", testServingConfig(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	api.register(mux)
	srv := newTestServer(t, mux)
	return api, srv, reg
}

// doJSON issues one request with an optional body and header, returning
// status and body text.
func doJSON(t *testing.T, srv *testServer, method, path, body string, header map[string]string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := srv.Client().Do(req)
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

// modelBody renders one predict/learn body at the given level.
func modelBody(cfg hdc.Config, level float64, label string) string {
	w := testWindow(cfg, level)
	payload := map[string]any{"window": w}
	if label != "" {
		payload["label"] = label
	}
	data, _ := json.Marshal(payload)
	return string(data)
}

func TestRegistryNamedRoutes(t *testing.T) {
	_, srv, _ := newRegistryTestAPI(t, t.TempDir())
	cfg := testServingConfig()

	// Create a tenant, teach it a class the default model does not have.
	code, body := doJSON(t, srv, "POST", "/models", `{"name":"tenant"}`, nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	for i := 0; i < 3; i++ {
		code, body = doJSON(t, srv, "POST", "/models/tenant/learn", modelBody(cfg, 8, "wave"), nil)
		if code != http.StatusOK {
			t.Fatalf("named learn: %d %s", code, body)
		}
	}
	var learn learnResponse
	if err := json.Unmarshal([]byte(body), &learn); err != nil {
		t.Fatal(err)
	}
	if learn.Generation != 3 || learn.Classes != 1 || learn.Model != "tenant" {
		t.Fatalf("learn response %+v", learn)
	}

	// Named predict answers from the tenant's model.
	code, body = doJSON(t, srv, "POST", "/models/tenant/predict", modelBody(cfg, 8, ""), nil)
	if code != http.StatusOK {
		t.Fatalf("named predict: %d %s", code, body)
	}
	var pred predictResponse
	if err := json.Unmarshal([]byte(body), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Label != "wave" || pred.Model != "tenant" {
		t.Fatalf("named predict answered %+v, want the tenant's class", pred)
	}

	// The legacy route still serves the default model (no model field in
	// the response), and the header routes it to the tenant.
	code, body = doJSON(t, srv, "POST", "/predict", modelBody(cfg, 16, ""), nil)
	if code != http.StatusOK {
		t.Fatalf("legacy predict: %d %s", code, body)
	}
	pred = predictResponse{}
	if err := json.Unmarshal([]byte(body), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Label != "fist" || pred.Model != "" {
		t.Fatalf("legacy predict answered %+v, want the default model's class", pred)
	}
	code, body = doJSON(t, srv, "POST", "/predict", modelBody(cfg, 8, ""), map[string]string{modelHeader: "tenant"})
	if code != http.StatusOK {
		t.Fatalf("header predict: %d %s", code, body)
	}
	pred = predictResponse{}
	if err := json.Unmarshal([]byte(body), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Label != "wave" || pred.Model != "tenant" {
		t.Fatalf("header-routed predict answered %+v", pred)
	}

	// Unknown models 404 on every surface.
	for _, probe := range []struct{ method, path string }{
		{"POST", "/models/ghost/predict"},
		{"POST", "/models/ghost/learn"},
		{"GET", "/models/ghost"},
		{"DELETE", "/models/ghost"},
	} {
		body := modelBody(cfg, 8, "x")
		if probe.method == "GET" || probe.method == "DELETE" {
			body = ""
		}
		if code, _ := doJSON(t, srv, probe.method, probe.path, body, nil); code != http.StatusNotFound {
			t.Fatalf("%s %s: %d, want 404", probe.method, probe.path, code)
		}
	}
	if code, _ := doJSON(t, srv, "POST", "/predict", modelBody(cfg, 8, ""), map[string]string{modelHeader: "ghost"}); code != http.StatusNotFound {
		t.Fatalf("header route to ghost: %d, want 404", code)
	}
}

func TestRegistryAdminSurface(t *testing.T) {
	_, srv, _ := newRegistryTestAPI(t, t.TempDir())

	if code, body := doJSON(t, srv, "POST", "/models", `{"name":"a"}`, nil); code != http.StatusCreated {
		t.Fatalf("create a: %d %s", code, body)
	}
	if code, _ := doJSON(t, srv, "POST", "/models", `{"name":"a"}`, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", code)
	}
	if code, _ := doJSON(t, srv, "POST", "/models", `{"name":"../escape"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad name: %d, want 400", code)
	}
	if code, _ := doJSON(t, srv, "POST", "/models", `{"name":"b","backend":"warp"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad backend: %d, want 400", code)
	}
	if code, body := doJSON(t, srv, "POST", "/models", `{"name":"b","backend":"remat","seed":99}`, nil); code != http.StatusCreated {
		t.Fatalf("create b: %d %s", code, body)
	}

	code, body := doJSON(t, srv, "GET", "/models", "", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var list struct {
		Models []modreg.Info `json:"models"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 3 || list.Models[0].Name != "a" || list.Models[1].Name != "b" || list.Models[2].Name != "default" {
		t.Fatalf("list %+v, want a/b/default", list.Models)
	}

	code, body = doJSON(t, srv, "GET", "/models/default", "", nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d %s", code, body)
	}
	var info modreg.Info
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "default" || info.Classes != 2 {
		t.Fatalf("default info %+v", info)
	}

	// The default model is delete-protected; tenants are not.
	if code, _ := doJSON(t, srv, "DELETE", "/models/default", "", nil); code != http.StatusConflict {
		t.Fatalf("delete default: %d, want 409", code)
	}
	if code, _ := doJSON(t, srv, "DELETE", "/models/a", "", nil); code != http.StatusOK {
		t.Fatalf("delete a: %d", code)
	}
	if code, _ := doJSON(t, srv, "GET", "/models/a", "", nil); code != http.StatusNotFound {
		t.Fatalf("deleted model still answers: %d", code)
	}
}

func TestRegistryReadyzPerModel(t *testing.T) {
	api, srv, _ := newRegistryTestAPI(t, t.TempDir())
	if code, body := doJSON(t, srv, "POST", "/models", `{"name":"empty"}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body := doJSON(t, srv, "GET", "/readyz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("readyz: %d %s", code, body)
	}
	var ready struct {
		Status  string `json:"status"`
		Default string `json:"default"`
		Models  []struct {
			Name  string `json:"name"`
			Ready bool   `json:"ready"`
		} `json:"models"`
	}
	if err := json.Unmarshal([]byte(body), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || ready.Default != "default" || len(ready.Models) != 2 {
		t.Fatalf("readyz body %+v", ready)
	}
	for _, m := range ready.Models {
		wantReady := m.Name == "default"
		if m.Ready != wantReady {
			t.Fatalf("model %s ready=%v, want %v", m.Name, m.Ready, wantReady)
		}
	}
	// Draining flips readiness regardless of model state.
	api.beginDrain()
	if code, _ := doJSON(t, srv, "GET", "/readyz", "", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", code)
	}
}

// TestRegistryRestartRecoversOverHTTP is the serve → learn → restart →
// predict acceptance path at the HTTP layer: every learn acknowledged
// over the wire is served by the next process, at the exact
// generation.
func TestRegistryRestartRecoversOverHTTP(t *testing.T) {
	dir := t.TempDir()
	cfg := testServingConfig()
	_, srv, _ := newRegistryTestAPI(t, dir)
	if code, body := doJSON(t, srv, "POST", "/models", `{"name":"tenant"}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	var lastGen uint64
	for i := 0; i < 4; i++ {
		code, body := doJSON(t, srv, "POST", "/models/tenant/learn", modelBody(cfg, 8, "wave"), nil)
		if code != http.StatusOK {
			t.Fatalf("learn %d: %d %s", i, code, body)
		}
		var lr learnResponse
		if err := json.Unmarshal([]byte(body), &lr); err != nil {
			t.Fatal(err)
		}
		lastGen = lr.Generation
	}
	code, body := doJSON(t, srv, "POST", "/learn", modelBody(cfg, 20, "open"), nil)
	if code != http.StatusOK {
		t.Fatalf("default learn: %d %s", code, body)
	}
	srv.Close()
	// No registry Close: the "process" dies here. The second boot must
	// recover both models from snapshot + WAL alone.

	_, srv2, reg2 := newRegistryTestAPI(t, dir)
	// Before fault-in the listing shows the snapshot state plus the WAL
	// tail it will replay; after fault-in the generation is exact.
	sv, err := reg2.Serving("tenant")
	if err != nil {
		t.Fatal(err)
	}
	if sv.Generation() != lastGen {
		t.Fatalf("tenant recovered at generation %d, want %d", sv.Generation(), lastGen)
	}
	code, body = doJSON(t, srv2, "POST", "/models/tenant/predict", modelBody(cfg, 8, ""), nil)
	if code != http.StatusOK {
		t.Fatalf("post-restart predict: %d %s", code, body)
	}
	var pred predictResponse
	if err := json.Unmarshal([]byte(body), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Label != "wave" || pred.Generation != lastGen {
		t.Fatalf("post-restart predict %+v, want wave at generation %d", pred, lastGen)
	}
	// The default model kept its HTTP-taught class too.
	code, body = doJSON(t, srv2, "POST", "/predict", modelBody(cfg, 20, ""), nil)
	if code != http.StatusOK {
		t.Fatalf("default predict: %d %s", code, body)
	}
	pred = predictResponse{}
	if err := json.Unmarshal([]byte(body), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Label != "open" {
		t.Fatalf("default model lost its learned class: %+v", pred)
	}
}

// TestRegistryPredictEmptyModel pins the error shape: a registered but
// never-taught model answers 409 on predict, not 500.
func TestRegistryPredictEmptyModel(t *testing.T) {
	_, srv, _ := newRegistryTestAPI(t, t.TempDir())
	cfg := testServingConfig()
	if code, body := doJSON(t, srv, "POST", "/models", `{"name":"empty"}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body := doJSON(t, srv, "POST", "/models/empty/predict", modelBody(cfg, 8, ""), nil)
	if code != http.StatusConflict {
		t.Fatalf("empty-model predict: %d %s, want 409", code, body)
	}
	if !strings.Contains(body, "no classes") {
		t.Fatalf("error body %q", body)
	}
}

// TestRegistryIsolationOverHTTP checks the response-attribution
// invariant end to end: concurrent predicts against two tenants always
// come back labeled with the tenant they addressed, carrying only that
// tenant's classes.
func TestRegistryIsolationOverHTTP(t *testing.T) {
	_, srv, _ := newRegistryTestAPI(t, t.TempDir())
	cfg := testServingConfig()
	for i, name := range []string{"ta", "tb"} {
		if code, body := doJSON(t, srv, "POST", "/models", fmt.Sprintf(`{"name":%q}`, name), nil); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, code, body)
		}
		label := fmt.Sprintf("%s-class", name)
		for k := 0; k < 2; k++ {
			level := float64(4 + 12*i)
			if code, body := doJSON(t, srv, "POST", "/models/"+name+"/learn", modelBody(cfg, level, label), nil); code != http.StatusOK {
				t.Fatalf("learn %s: %d %s", name, code, body)
			}
		}
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			name := []string{"ta", "tb"}[w%2]
			level := float64(4 + 12*(w%2))
			for n := 0; n < 20; n++ {
				resp, err := srv.Client().Post(srv.URL+"/models/"+name+"/predict",
					"application/json", strings.NewReader(modelBody(cfg, level, "")))
				if err != nil {
					done <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					done <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("%s predict: %d %s", name, resp.StatusCode, body)
					return
				}
				var pred predictResponse
				if err := json.Unmarshal(body, &pred); err != nil {
					done <- err
					return
				}
				if pred.Model != name || pred.Label != name+"-class" {
					done <- fmt.Errorf("asked %s, answered model=%s label=%s", name, pred.Model, pred.Label)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
