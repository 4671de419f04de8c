package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"pulphd/internal/obs"
)

// sessionHeader carries the client's stream-affinity key. The front
// hashes it (with the model name) onto the replica ring, so one EMG
// stream keeps hitting one replica — warm per-model state, monotonic
// generations. Absent, the client IP stands in.
//
// Both header names are spelled in canonical form, so r.Header.Get
// finds them without canonicalising (and allocating) per request;
// header names are case-insensitive on the wire.
const sessionHeader = "X-Pulphd-Session"

// modelHeader mirrors the serve tier's header routing a legacy-path
// request to a named model.
const modelHeader = "X-Pulphd-Model"

// maxFrontBody bounds a buffered request body (bodies are buffered so
// a failed replica's request can replay against the next candidate).
const maxFrontBody = 1 << 20

// maxSessionFloors bounds the read-your-writes table; past it,
// arbitrary sessions forget their floor and simply route through the
// primary-consistency check again (correctness is kept by the primary
// fallback, only affinity warmth is lost).
const maxSessionFloors = 8192

// DefaultProbeInterval is the front's health/generation poll gap when
// FrontConfig leaves ProbeInterval unset.
const DefaultProbeInterval = time.Second

// FrontConfig configures the consistent-hash front tier.
type FrontConfig struct {
	// Primary is the primary's base URL: every write (/learn, model
	// admin) forwards there, and predicts fall back to it when no
	// replica satisfies the session's read-your-writes floor.
	Primary string
	// Replicas are the replica base URLs the ring hashes over.
	Replicas []string
	// ProbeInterval is the health/generation poll gap; ≤ 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// VNodes is the virtual-node count per replica (< 1: default).
	VNodes int
	// Client is the outbound HTTP client; nil means a 30 s timeout.
	Client *http.Client
	// Log defaults to discard.
	Log *slog.Logger
}

// backendState is one replica's last probe result: reachable or not,
// and the generation each of its models reported — the data the
// read-your-writes check runs on.
type backendState struct {
	healthy      bool
	defaultModel string
	gens         map[string]uint64
}

// replicaReadyz is the slice of a replica's /readyz body the front
// needs (the serve tier's registry readiness shape).
type replicaReadyz struct {
	Default string `json:"default"`
	Models  []struct {
		Name       string `json:"name"`
		Generation uint64 `json:"generation"`
	} `json:"models"`
}

// Front is the thin routing tier: consistent-hash predicts across
// healthy replicas for stream affinity, forward every write to the
// primary, and give read-your-writes by pinning a session to a
// replica only once that replica's probed generation has reached the
// generation the session's last learn acknowledged. It holds no model
// state — killing a front loses nothing but warm affinity.
type Front struct {
	cfg    FrontConfig
	client *http.Client
	log    *slog.Logger

	mu     sync.RWMutex
	ring   *Ring
	states map[string]*backendState

	floorMu sync.Mutex
	floors  map[string]map[string]uint64 // session → model → min generation

	healthyReplicas  obs.Gauge
	forwards         *obs.CounterVec // (backend, route)
	rehashes         obs.Counter
	primaryFallbacks obs.Counter
	backendErrors    obs.Counter
}

// NewFront validates cfg and builds the front (probe loop not yet
// running; all replicas start unhealthy until the first probe).
func NewFront(cfg FrontConfig) (*Front, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: FrontConfig.Primary must be set")
	}
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("replica: FrontConfig.Replicas must name at least one replica")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	f := &Front{
		cfg:      cfg,
		client:   cfg.Client,
		log:      cfg.Log,
		ring:     NewRing(nil, cfg.VNodes),
		states:   make(map[string]*backendState, len(cfg.Replicas)),
		floors:   make(map[string]map[string]uint64),
		forwards: obs.NewCounterVec("backend", "route"),
	}
	if f.client == nil {
		f.client = &http.Client{Timeout: 30 * time.Second}
	}
	if f.log == nil {
		f.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for _, r := range cfg.Replicas {
		f.states[r] = &backendState{}
	}
	return f, nil
}

// RegisterMetrics exposes the front families on r (documented in
// docs/OPERATIONS.md).
func (f *Front) RegisterMetrics(r *obs.Registry) {
	r.RegisterGauge("pulphd_front_healthy_replicas",
		"Replicas the last probe found reachable and serving.", &f.healthyReplicas)
	r.RegisterCounterVec("pulphd_front_forwards_total",
		"Requests forwarded, by backend (replica/primary) and route (predict/learn/admin).", f.forwards)
	r.RegisterCounter("pulphd_front_rehashes_total",
		"Predicts rerouted off their ring owner because it was unhealthy or failed mid-request.", &f.rehashes)
	r.RegisterCounter("pulphd_front_primary_fallbacks_total",
		"Predicts answered by the primary because no healthy replica had reached the session's read-your-writes generation.", &f.primaryFallbacks)
	r.RegisterCounter("pulphd_front_backend_errors_total",
		"Transport-level forward failures (the request was retried on another backend when one existed).", &f.backendErrors)
}

// Run probes the replica set every ProbeInterval until ctx cancels.
func (f *Front) Run(ctx context.Context) {
	f.ProbeOnce(ctx)
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce polls every replica's /readyz once and rebuilds the ring
// from the healthy set. Exported so tests (and the serve boot path)
// can converge membership deterministically.
func (f *Front) ProbeOnce(ctx context.Context) {
	healthy := make([]string, 0, len(f.cfg.Replicas))
	states := make(map[string]*backendState, len(f.cfg.Replicas))
	for _, base := range f.cfg.Replicas {
		st := f.probe(ctx, base)
		states[base] = st
		if st.healthy {
			healthy = append(healthy, base)
		}
	}
	f.mu.Lock()
	oldMembers := len(f.ring.Members())
	f.states = states
	f.ring = NewRing(healthy, f.cfg.VNodes)
	f.mu.Unlock()
	f.healthyReplicas.Set(int64(len(healthy)))
	if len(healthy) != oldMembers {
		f.log.Info("replica membership changed", "healthy", len(healthy), "of", len(f.cfg.Replicas))
	}
}

// probe fetches one replica's /readyz. A replica is routable when the
// transport works and the body carries a model table — a 503 from a
// not-ready default model still lists every tenant's generation, but
// a draining replica (bare error body) drops out of the ring.
func (f *Front) probe(ctx context.Context, base string) *backendState {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return &backendState{}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return &backendState{}
	}
	defer resp.Body.Close()
	var body replicaReadyz
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil || body.Models == nil {
		return &backendState{}
	}
	st := &backendState{healthy: true, defaultModel: body.Default, gens: make(map[string]uint64, len(body.Models))}
	for _, m := range body.Models {
		st.gens[m.Name] = m.Generation
	}
	return st
}

// Register installs the front's routes on mux. Predicts hash to
// replicas; learns, model admin and everything else (debug surfaces
// included) forward to the primary. /healthz, /readyz and /metrics
// are the front's own.
func (f *Front) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /predict", f.handlePredict)
	mux.HandleFunc("POST /models/{model}/predict", f.handlePredict)
	mux.HandleFunc("POST /learn", f.handleLearn)
	mux.HandleFunc("POST /models/{model}/learn", f.handleLearn)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.HandleFunc("/", f.handleAdmin)
}

func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// handleReadyz reports the front's routing capacity: 200 while at
// least one replica is healthy (predicts can hash somewhere), 503
// when the whole replica set is down and only primary fallback
// remains.
func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	f.mu.RLock()
	replicas := make(map[string]bool, len(f.states))
	healthy := 0
	for base, st := range f.states {
		replicas[base] = st.healthy
		if st.healthy {
			healthy++
		}
	}
	f.mu.RUnlock()
	status, code := "ready", http.StatusOK
	if healthy == 0 {
		status, code = "no healthy replicas", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"healthy":  healthy,
		"replicas": replicas,
	})
}

// sessionKey is the stream-affinity key: the session header when the
// client sends one, else its IP — so header-less clients still get
// per-source affinity instead of scattering.
func sessionKey(r *http.Request) string {
	if s := r.Header.Get(sessionHeader); s != "" {
		return s
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// modelRef is the model the request addresses as the client spelled
// it: path segment, header, or "" for the backend's default model.
func modelRef(r *http.Request) string {
	if m := r.PathValue("model"); m != "" {
		return m
	}
	return r.Header.Get(modelHeader)
}

func (f *Front) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFrontBody+1))
	if err != nil || len(body) > maxFrontBody {
		httpError(w, http.StatusBadRequest, errors.New("request body unreadable or too large"))
		return
	}
	session, ref := sessionKey(r), modelRef(r)
	floor := f.floor(session, ref)
	f.mu.RLock()
	ring, states := f.ring, f.states
	f.mu.RUnlock()
	candidates := ring.PickN(ref+"|"+session, len(f.cfg.Replicas))
	for i, base := range candidates {
		st := states[base]
		if st == nil || !st.healthy {
			continue
		}
		if floor > 0 && f.genFor(st, ref) < floor {
			// This replica hasn't caught up to the session's last
			// acknowledged learn; read-your-writes sends it elsewhere.
			continue
		}
		if i > 0 {
			f.rehashes.Inc()
		}
		if f.forward(w, r, base, body, "replica", "predict") {
			return
		}
		// Transport failure mid-request: drop the replica from the ring
		// now instead of waiting for the next probe, and retry the next
		// candidate — the client never sees the dead backend.
		f.markUnhealthy(base)
		f.rehashes.Inc()
	}
	f.primaryFallbacks.Inc()
	if !f.forward(w, r, f.cfg.Primary, body, "primary", "predict") {
		httpError(w, http.StatusBadGateway, errors.New("no backend reachable"))
	}
}

func (f *Front) handleLearn(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFrontBody+1))
	if err != nil || len(body) > maxFrontBody {
		httpError(w, http.StatusBadRequest, errors.New("request body unreadable or too large"))
		return
	}
	resp, err := f.roundTrip(r, f.cfg.Primary, body)
	if err != nil {
		f.backendErrors.Inc()
		httpError(w, http.StatusBadGateway, fmt.Errorf("primary unreachable: %w", err))
		return
	}
	defer resp.Body.Close()
	f.forwards.With("primary", "learn").Inc()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxFrontBody))
	if err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("primary response unreadable: %w", err))
		return
	}
	if resp.StatusCode == http.StatusOK {
		// The learn response carries the new generation; remembering it
		// as the session's floor is what makes a later predict wait for
		// a caught-up replica (or use the primary) instead of reading a
		// stale model.
		var lr struct {
			Generation uint64 `json:"generation"`
		}
		if json.Unmarshal(respBody, &lr) == nil && lr.Generation > 0 {
			f.setFloor(sessionKey(r), modelRef(r), lr.Generation)
		}
	}
	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

// handleAdmin forwards everything unmatched — model admin, SLO
// routes, the debug surfaces — to the primary, streaming the response
// through.
func (f *Front) handleAdmin(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFrontBody+1))
	if err != nil || len(body) > maxFrontBody {
		httpError(w, http.StatusBadRequest, errors.New("request body unreadable or too large"))
		return
	}
	if !f.forward(w, r, f.cfg.Primary, body, "primary", "admin") {
		httpError(w, http.StatusBadGateway, errors.New("primary unreachable"))
	}
}

// forward replays the request against base and streams the response
// back; false means a transport-level failure with nothing written,
// so the caller may retry another backend. A 503 from a replica
// counts as transport-level (it is draining or unready); from the
// primary it passes through — there is nobody further to try.
func (f *Front) forward(w http.ResponseWriter, r *http.Request, base string, body []byte, backend, route string) bool {
	resp, err := f.roundTrip(r, base, body)
	if err != nil {
		f.backendErrors.Inc()
		return false
	}
	defer resp.Body.Close()
	if backend == "replica" && resp.StatusCode == http.StatusServiceUnavailable {
		f.backendErrors.Inc()
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxFrontBody))
		return false
	}
	f.forwards.With(backend, route).Inc()
	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

func (f *Front) roundTrip(r *http.Request, base string, body []byte) (*http.Response, error) {
	u := base + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", modelHeader, sessionHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return f.client.Do(req)
}

func copyHeader(dst, src http.Header) {
	for _, h := range []string{"Content-Type", "X-Pulphd-Generation"} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// genFor resolves the generation st last reported for the model as
// the client referenced it ("" means the replica's default model).
func (f *Front) genFor(st *backendState, ref string) uint64 {
	name := ref
	if name == "" {
		name = st.defaultModel
	}
	return st.gens[name]
}

func (f *Front) markUnhealthy(base string) {
	f.mu.Lock()
	if st, ok := f.states[base]; ok && st.healthy {
		f.states[base] = &backendState{}
	}
	healthy := make([]string, 0, len(f.states))
	for b, st := range f.states {
		if st.healthy {
			healthy = append(healthy, b)
		}
	}
	f.ring = NewRing(healthy, f.cfg.VNodes)
	f.mu.Unlock()
	f.healthyReplicas.Set(int64(len(healthy)))
}

func (f *Front) floor(session, ref string) uint64 {
	f.floorMu.Lock()
	defer f.floorMu.Unlock()
	return f.floors[session][ref]
}

func (f *Front) setFloor(session, ref string, gen uint64) {
	f.floorMu.Lock()
	defer f.floorMu.Unlock()
	if len(f.floors) >= maxSessionFloors {
		for s := range f.floors {
			delete(f.floors, s)
			break
		}
	}
	m := f.floors[session]
	if m == nil {
		m = make(map[string]uint64, 1)
		f.floors[session] = m
	}
	if gen > m[ref] {
		m[ref] = gen
	}
}

// httpError mirrors the serve tier's error shape.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
