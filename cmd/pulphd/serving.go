package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
	"pulphd/internal/obs/flight"
	sloeng "pulphd/internal/obs/slo"
	modreg "pulphd/internal/registry"
)

// modelHeader routes a legacy /predict or /learn request to a named
// registry model without changing its path. It is spelled in canonical
// form so r.Header.Get looks it up without canonicalising (and
// allocating) on every request; header names are case-insensitive.
const modelHeader = "X-Pulphd-Model"

// This file is the HTTP front end of the online-learning serving
// layer: POST /predict classifies windows against the current model
// generation, POST /learn folds label-corrected windows back in. Every
// request resolves its model in the registry and runs on its own
// handler goroutine: a predict is a few microseconds of encode and AM
// search, cheaper than any handoff to another goroutine, so the
// handler runs it inline. An in-flight bound sheds excess predicts
// with 429 instead of letting them pile onto the CPUs.
//
// /models/{name}/predict and /models/{name}/learn route by path, the
// legacy /predict and /learn routes accept an X-PULPHD-Model header or
// fall through to the default model, and /models hosts the admin
// surface (list, create, delete). Learns are write-ahead logged before
// they apply, so acknowledged learns survive a crash.

// maxRequestBody bounds a request body; the EMG operating point needs
// a few KB per window, so 1 MiB leaves room for much larger models.
const maxRequestBody = 1 << 20

// errNoModel is returned for predicts against a model with no classes
// (nothing learned yet).
var errNoModel = errors.New("model has no classes yet; POST /learn first")

// errReadOnly refuses mutating routes on a replica.
var errReadOnly = errors.New("replica is read-only; send learns and model admin to the front or the primary")

// errPredictPanic marks a predict that kept panicking after the
// bounded retries — answered 500, never a process crash.
var errPredictPanic = errors.New("internal error during predict")

// errDeadline marks a predict whose per-request deadline expired
// before an attempt could start — answered 504.
var errDeadline = errors.New("predict deadline exceeded")

// predictResult is one answered predict: the winning class, the
// generation the predict actually scanned, and the flight-recorder
// trigger bits it raised (retried).
type predictResult struct {
	label      string
	distance   int
	generation uint64
	trig       flight.Trigger
}

// apiServer serves the registry's models over HTTP.
type apiServer struct {
	// reg is the multi-tenant model registry every route resolves
	// against; defaultModel names the model the legacy /predict and
	// /learn routes serve, and baseConfig is the geometry POST /models
	// creates new models with.
	reg          *modreg.Registry
	defaultModel string
	baseConfig   hdc.Config
	m            *obs.ServingMetrics

	// maxInFlight bounds the predicts running at once; inFlight counts
	// them, and a predict admitted past the bound is shed with 429.
	maxInFlight int64
	inFlight    atomic.Int64

	// timeout bounds one predict from arrival to its last attempt's
	// start (0: none); past it the handler answers 504. retries and
	// retryBackoff bound the re-attempts after a recovered predict
	// panic; backoff doubles per attempt.
	timeout      time.Duration
	retries      int
	retryBackoff time.Duration

	// log receives the structured request log; timelines, when
	// non-nil, keeps the most recent request span trees for
	// /debug/spans. Both are optional and set before serving.
	log       *slog.Logger
	timelines *obs.Timelines

	// slo is the per-tenant SLO engine (burn rates, breach callback)
	// and flight the tail-event recorder that /debug/flight dumps.
	// Both optional, set before serving, and nil-safe throughout.
	slo    *sloeng.Engine
	flight *flight.Ring

	// readOnly refuses every mutating route with 403 — the replica
	// role: model state arrives only through the sync loop, so a learn
	// accepted here would be silently overwritten by the next cycle.
	readOnly bool

	// nextID tags every request with a process-unique id (log lines
	// and span timelines correlate on it). draining flips once at
	// shutdown: new work is refused with 503 while in-flight requests
	// finish under the connection loop's Shutdown.
	nextID   atomic.Uint64
	draining atomic.Bool
}

// newAPIServer builds the server over a model registry. The legacy
// /predict and /learn routes serve defaultModel, which must be
// registered; the /models routes serve every tenant. baseConfig is the
// geometry POST /models creates models with, and maxInFlight the
// concurrent-predict bound past which requests get 429. The server
// holds no model itself: every request resolves its model, so an
// evicted model's memory is released as soon as its last predict ends.
func newAPIServer(reg *modreg.Registry, defaultModel string, baseConfig hdc.Config,
	maxInFlight int, m *obs.ServingMetrics) (*apiServer, error) {
	if !reg.Has(defaultModel) {
		return nil, fmt.Errorf("default model: %w: %q", modreg.ErrNotFound, defaultModel)
	}
	return &apiServer{
		reg:          reg,
		defaultModel: defaultModel,
		baseConfig:   baseConfig,
		m:            m,
		maxInFlight:  int64(max(maxInFlight, 1)),
		retries:      2,
		retryBackoff: 2 * time.Millisecond,
		log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	}, nil
}

// beginDrain refuses new work with 503 while requests already in
// flight complete — the first step of graceful shutdown, before
// the connection loop's Shutdown waits the handlers out.
func (s *apiServer) beginDrain() {
	s.draining.Store(true)
}

// finish closes a request's timeline: it ends the root span, pins the
// timeline into the flight recorder when the request tripped a trigger
// or ran past its model's SLO latency objective, and files the
// recorder back into the timeline ring. The handler owns the recorder
// alone, so it calls finish exactly once on every path that got past
// model resolution and decode. On the healthy path this is a handful
// of compares — no allocation, no capture. dur is the request's wall
// time so far, read once and shared with the SLO engine.
func (s *apiServer) finish(rec *obs.Spans, root obs.SpanID, model string, gen uint64, trig flight.Trigger, dur time.Duration) {
	rec.End(root)
	if s.flight != nil {
		if th := s.slo.SlowThreshold(model); th > 0 && dur > th {
			trig |= flight.TrigSlow
		}
		s.flight.Capture(rec, model, gen, trig, dur)
	}
	s.timelines.Release(rec)
}

// maxRetryBackoff caps the doubling predict-retry backoff: past it
// every further attempt waits this long instead of doubling again.
const maxRetryBackoff = time.Second

// backoff returns the sleep before retrying after failed attempt
// `attempt`: retryBackoff doubled per attempt, saturating at
// maxRetryBackoff. The shift is checked before it happens, so a large
// -predict-retries can never overflow time.Duration into a negative
// sleep (a negative Sleep returns immediately, turning the backoff
// into a hot retry loop exactly when the model is panicking).
func (s *apiServer) backoff(attempt int) time.Duration {
	b := s.retryBackoff
	if b <= 0 {
		return 0
	}
	if attempt >= 63 || b > maxRetryBackoff>>uint(attempt) {
		return maxRetryBackoff
	}
	return b << uint(attempt)
}

// predict classifies one decoded window on the calling goroutine with
// bounded retries. Before every attempt the request's deadline is
// checked (errDeadline, a 504). A panicking attempt — a poisoned model,
// a crashed AM scan — is recovered, and the attempt repeats on a fresh
// session after a doubling backoff; when the retry budget is spent the
// request fails with errPredictPanic (a 500). The process never dies
// with it. The result carries the TrigRetry bit whenever more than one
// attempt ran.
func (s *apiServer) predict(ctx context.Context, sv *hdc.Serving, window [][]float64, start time.Time) (predictResult, error) {
	var trig flight.Trigger
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			trig |= flight.TrigRetry
		}
		if s.timeout > 0 && time.Since(start) > s.timeout {
			return predictResult{trig: trig}, errDeadline
		}
		res, err := s.tryPredict(ctx, sv, window)
		if err == nil {
			res.trig |= trig
			return res, nil
		}
		if attempt >= s.retries {
			return predictResult{trig: trig}, fmt.Errorf("%w: %v", errPredictPanic, err)
		}
		s.m.RecordRetry()
		if d := s.backoff(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// tryPredict runs one predict attempt, converting a panic into an
// error. hdc.Serving.PredictCtx leaves the session it panicked in out
// of its pool, so the retry starts clean. The generation is the one
// the predict's own atomic load scanned — a /learn can publish
// mid-predict and make any generation read earlier stale.
func (s *apiServer) tryPredict(ctx context.Context, sv *hdc.Serving, window [][]float64) (res predictResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.RecordPanicRecovered()
			s.log.Warn("predict panic recovered", "panic", r)
			err = fmt.Errorf("recovered: %v", r)
		}
	}()
	res.label, res.distance, res.generation = sv.PredictCtx(ctx, window)
	return res, nil
}

// register installs the serving endpoints on mux.
func (s *apiServer) register(mux *http.ServeMux) {
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/learn", s.handleLearn)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/spans", s.handleSpans)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("POST /models/{model}/predict", s.handlePredict)
	mux.HandleFunc("POST /models/{model}/learn", s.handleLearn)
	mux.HandleFunc("GET /models", s.handleModelsList)
	mux.HandleFunc("POST /models", s.handleModelCreate)
	mux.HandleFunc("GET /models/{model}", s.handleModelInfo)
	mux.HandleFunc("DELETE /models/{model}", s.handleModelDelete)
	mux.HandleFunc("GET /models/{model}/slo", s.handleModelSLO)
	mux.HandleFunc("POST /models/{model}/slo", s.handleModelSLOSet)
}

// resolveModel picks the model a request addresses: the {model} path
// segment, the X-PULPHD-Model header, or the default. The returned
// name is empty exactly when the request did not route explicitly (the
// legacy shape). ctx carries the request's span recorder, so a cold
// model's fault-in (snapshot read, WAL replay) shows up as
// registry.faultin / registry.recover spans inside the request
// timeline that paid for it.
func (s *apiServer) resolveModel(ctx context.Context, r *http.Request) (name string, sv *hdc.Serving, err error) {
	name = r.PathValue("model")
	if name == "" {
		name = r.Header.Get(modelHeader)
	}
	sv, err = s.reg.ServingCtx(ctx, orDefault(name, s.defaultModel))
	return name, sv, err
}

// registryErrCode maps registry errors onto HTTP statuses.
func registryErrCode(err error, fallback int) int {
	switch {
	case errors.Is(err, modreg.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, modreg.ErrExists):
		return http.StatusConflict
	case errors.Is(err, modreg.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return fallback
}

// handleHealthz is liveness: the process is up and handling HTTP.
func (s *apiServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// handleReadyz is readiness: the server answers 200 once a model is
// published that /predict can classify against — a generation ≥ 1
// (something learned) or a snapshot that already holds classes — and
// flips back to 503 while draining, so load balancers stop routing
// before shutdown completes.
func (s *apiServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	if name := r.URL.Query().Get("model"); name != "" {
		s.handleModelReadyz(w, r, name)
		return
	}
	s.handleRegistryReadyz(w)
}

// handleModelReadyz gates readiness on one model reaching a minimum
// generation: GET /readyz?model=NAME&min_generation=G answers 200
// only once NAME is ready to classify AND its generation is ≥ G —
// how a front (or an operator's curl loop) waits for an acknowledged
// learn to land on a replica before routing the session there.
func (s *apiServer) handleModelReadyz(w http.ResponseWriter, r *http.Request, name string) {
	var minGen uint64
	if g := r.URL.Query().Get("min_generation"); g != "" {
		var err error
		if minGen, err = strconv.ParseUint(g, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad min_generation: %w", err))
			return
		}
	}
	info, err := s.reg.ModelInfo(name)
	if err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	ready := (info.Generation > 0 || info.Classes > 0) && info.Generation >= minGen
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "not ready", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"model":          name,
		"generation":     info.Generation,
		"min_generation": minGen,
		"ready":          ready,
	})
}

// modelReadiness is one model's row in the registry-backed /readyz:
// its Info plus the per-model ready verdict (something to classify
// against — a published generation or snapshot classes).
type modelReadiness struct {
	modreg.Info
	Ready bool `json:"ready"`
}

// handleRegistryReadyz reports per-model readiness. The top-level
// verdict (and the status code load balancers act on) is the default
// model's, matching what the legacy /predict route can serve; the
// models array carries every tenant's own verdict.
func (s *apiServer) handleRegistryReadyz(w http.ResponseWriter) {
	infos := s.reg.List()
	models := make([]modelReadiness, 0, len(infos))
	ready := false
	for _, info := range infos {
		mr := modelReadiness{Info: info, Ready: info.Generation > 0 || info.Classes > 0}
		if info.Name == s.defaultModel {
			ready = mr.Ready
		}
		models = append(models, mr)
	}
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "not ready", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":  status,
		"default": s.defaultModel,
		"models":  models,
	})
}

// handleSpans exports the retained request timelines as Chrome
// trace-event JSON (load in ui.perfetto.dev); ?model= scopes the dump
// to one tenant's requests.
func (s *apiServer) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.timelines == nil {
		httpError(w, http.StatusNotFound, errors.New("request tracing disabled; serve with -trace-requests > 0"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.timelines.WriteChromeTraceModel(w, r.URL.Query().Get("model"))
}

// handleFlight exports the flight recorder's captured tail events:
// Chrome trace-event JSON by default, ?summary=1 for the compact form
// hdload attaches to capacity reports, ?model= scoped to one tenant.
func (s *apiServer) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		httpError(w, http.StatusNotFound, errors.New("flight recorder disabled; serve with -flight > 0"))
		return
	}
	model := r.URL.Query().Get("model")
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("summary") != "" {
		s.flight.WriteSummary(w, model)
		return
	}
	s.flight.WriteChromeTrace(w, model)
}

// handleModelSLO answers GET /models/{model}/slo with the model's SLO
// status: objective, dual-window burn rates, breach state, latency
// quantiles.
func (s *apiServer) handleModelSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		httpError(w, http.StatusNotFound, errors.New("SLO engine disabled; serve with -slo-latency > 0"))
		return
	}
	name := r.PathValue("model")
	if _, err := s.reg.ModelInfo(name); err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.slo.Status(name))
}

// sloObjectiveRequest is the POST /models/{model}/slo body; absent
// fields keep their current value.
type sloObjectiveRequest struct {
	LatencyMs     *float64 `json:"latency_ms"`
	LatencyTarget *float64 `json:"latency_target"`
	ErrorBudget   *float64 `json:"error_budget"`
}

// handleModelSLOSet answers POST /models/{model}/slo: adjust one
// tenant's objective (latency bound, latency target, error budget) at
// runtime and return the resulting status.
func (s *apiServer) handleModelSLOSet(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		httpError(w, http.StatusNotFound, errors.New("SLO engine disabled; serve with -slo-latency > 0"))
		return
	}
	if s.readOnly {
		httpError(w, http.StatusForbidden, errReadOnly)
		return
	}
	name := r.PathValue("model")
	if _, err := s.reg.ModelInfo(name); err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req sloObjectiveRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	obj := s.slo.Objective(name)
	if req.LatencyMs != nil {
		if *req.LatencyMs <= 0 {
			httpError(w, http.StatusBadRequest, errors.New("latency_ms must be positive"))
			return
		}
		obj.Latency = time.Duration(*req.LatencyMs * float64(time.Millisecond))
	}
	if req.LatencyTarget != nil {
		if *req.LatencyTarget <= 0 || *req.LatencyTarget >= 1 {
			httpError(w, http.StatusBadRequest, errors.New("latency_target must be in (0, 1)"))
			return
		}
		obj.LatencyTarget = *req.LatencyTarget
	}
	if req.ErrorBudget != nil {
		if *req.ErrorBudget <= 0 || *req.ErrorBudget >= 1 {
			httpError(w, http.StatusBadRequest, errors.New("error_budget must be in (0, 1)"))
			return
		}
		obj.ErrorBudget = *req.ErrorBudget
	}
	s.slo.SetObjective(name, obj)
	s.log.Info("model SLO updated", "model", name,
		"latency", obj.Latency, "latency_target", obj.LatencyTarget, "error_budget", obj.ErrorBudget)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.slo.Status(name))
}

// httpError responds with a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// request is the state the /predict and /learn handlers share: the
// request id and arrival time, the span recorder riding ctx with its
// root span, and the model the request resolved to — name as routed
// (empty on the legacy route), model with the default filled in.
type request struct {
	id    uint64
	start time.Time
	ctx   context.Context
	rec   *obs.Spans
	root  obs.SpanID
	name  string
	model string
	sv    *hdc.Serving
}

// begin opens a /predict or /learn request: it checks the method,
// refuses work while draining (and learns on a read-only replica),
// tags the request with an id, acquires its span recorder and resolves
// its model. The recorder is acquired before the model resolves so a
// cold fault-in lands in this request's timeline. From here the
// handler alone owns the recorder and closes it on every path. ok is
// false when begin has already answered.
func (s *apiServer) begin(w http.ResponseWriter, r *http.Request, kind string) (q request, ok bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a JSON body to /%s", kind))
		return q, false
	}
	if s.draining.Load() {
		s.m.RecordRequest(false)
		httpError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return q, false
	}
	if s.readOnly && kind == "learn" {
		s.m.RecordRequest(false)
		httpError(w, http.StatusForbidden, errReadOnly)
		return q, false
	}
	q.id, q.start, q.ctx, q.root = s.nextID.Add(1), time.Now(), r.Context(), obs.NoSpan
	if q.rec = s.timelines.Acquire(q.id); q.rec != nil {
		q.ctx = obs.WithSpans(q.ctx, q.rec)
		q.root = q.rec.Start("request", obs.NoSpan)
		q.rec.Annotate(q.root, "id", int64(q.id))
		q.rec.SetParent(q.root)
	}
	var err error
	q.name, q.sv, err = s.resolveModel(q.ctx, r)
	q.model = orDefault(q.name, s.defaultModel)
	if err != nil {
		s.reject(w, q, kind, registryErrCode(err, http.StatusInternalServerError), err)
		return q, false
	}
	if q.rec != nil {
		q.rec.Model = q.model
	}
	return q, true
}

// reject answers a request refused before its work started: it counts
// the rejection, closes and recycles the timeline without a flight
// capture, and writes the error.
func (s *apiServer) reject(w http.ResponseWriter, q request, kind string, code int, err error) {
	s.m.RecordRequest(false)
	q.rec.End(q.root)
	s.timelines.Release(q.rec)
	s.log.Debug(kind+" rejected", "request", q.id, "error", err)
	httpError(w, code, err)
}

func (s *apiServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "predict")
	if !ok {
		return
	}
	// The window aliases b, so b returns to the pool only once the
	// answer is written.
	b := getWire()
	defer putWire(b)
	dec := q.rec.Start("decode", q.root)
	window, err := b.decodePredict(q.sv, http.MaxBytesReader(w, r.Body, maxRequestBody))
	q.rec.End(dec)
	if err != nil {
		s.reject(w, q, "predict", http.StatusBadRequest, err)
		return
	}
	s.reg.Metrics().RecordOp(q.model, "predict")
	// Admission: past maxInFlight concurrent predicts the request sheds
	// with 429 instead of queueing for a CPU.
	if s.inFlight.Add(1) > s.maxInFlight {
		s.inFlight.Add(-1)
		s.m.RecordRequest(false)
		dur := time.Since(q.start)
		s.finish(q.rec, q.root, q.model, 0, flight.TrigShed, dur)
		s.slo.Record(q.model, dur, true)
		s.log.Debug("predict shed", "request", q.id, "reason", "too many in flight")
		httpError(w, http.StatusTooManyRequests, errors.New("too many predicts in flight; retry"))
		return
	}
	defer s.inFlight.Add(-1)
	s.m.RecordRequest(true)
	if q.sv.Classes() == 0 {
		// The client's 409: not a tail event, and no burn against the
		// model's error budget.
		s.finish(q.rec, q.root, q.model, 0, 0, time.Since(q.start))
		s.log.Debug("predict failed", "request", q.id, "error", errNoModel)
		httpError(w, http.StatusConflict, errNoModel)
		return
	}
	res, err := s.predict(q.ctx, q.sv, window, q.start)
	dur := time.Since(q.start)
	if err != nil {
		code, trig := http.StatusInternalServerError, flight.TrigError
		if errors.Is(err, errDeadline) {
			code, trig = http.StatusGatewayTimeout, flight.TrigTimeout
			s.m.RecordTimeout()
		}
		s.finish(q.rec, q.root, q.model, 0, res.trig|trig, dur)
		s.slo.Record(q.model, dur, true)
		s.log.Debug("predict failed", "request", q.id, "error", err)
		httpError(w, code, err)
		return
	}
	s.finish(q.rec, q.root, q.model, res.generation, res.trig, dur)
	s.slo.Record(q.model, dur, false)
	b.buf = appendPredictResponse(b.buf[:0], res.label, res.distance, res.generation, q.name)
	writeJSONBody(w, b.buf)
	if s.log.Enabled(q.ctx, slog.LevelDebug) {
		s.log.LogAttrs(q.ctx, slog.LevelDebug, "predict", slog.Uint64("request", q.id),
			slog.String("label", res.label), slog.Int("distance", res.distance),
			slog.Uint64("generation", res.generation), slog.Duration("duration", time.Since(q.start)))
	}
}

func (s *apiServer) handleLearn(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "learn")
	if !ok {
		return
	}
	b := getWire()
	defer putWire(b)
	label, window, err := b.decode(http.MaxBytesReader(w, r.Body, maxRequestBody), true)
	if err != nil {
		s.reject(w, q, "learn", http.StatusBadRequest, err)
		return
	}
	if label == "" {
		s.reject(w, q, "learn", http.StatusBadRequest, errors.New("label must be non-empty"))
		return
	}
	// Learn serializes on the model's writer lock; the copy-on-write
	// publish keeps concurrent predicts lock-free throughout. The learn
	// is write-ahead logged as correction feedback before it applies,
	// so an acknowledged learn survives a crash.
	var gen uint64
	var classes int
	err = s.reg.CorrectCtx(q.ctx, q.model, label, window)
	if info, infoErr := s.reg.ModelInfo(q.model); infoErr == nil {
		gen, classes = info.Generation, info.Classes
	}
	// Tail-event bookkeeping before the recorder recycles: a 5xx learn
	// or one slower than its model's latency objective pins the
	// timeline (WAL fsync stalls are exactly what this catches), and
	// the SLO engine sees every server-side outcome. Client-shaped
	// rejections (4xx) burn no error budget.
	code := 0
	var trig flight.Trigger
	if err != nil {
		if code = registryErrCode(err, http.StatusBadRequest); code >= 500 {
			trig = flight.TrigError
		}
	}
	dur := time.Since(q.start)
	s.finish(q.rec, q.root, q.model, gen, trig, dur)
	if err != nil {
		s.m.RecordRequest(false)
		if code >= 500 {
			s.slo.Record(q.model, dur, true)
		}
		s.log.Debug("learn rejected", "request", q.id, "error", err)
		httpError(w, code, err)
		return
	}
	s.slo.Record(q.model, dur, false)
	s.m.RecordRequest(true)
	b.buf = appendLearnResponse(b.buf[:0], gen, classes, q.name)
	writeJSONBody(w, b.buf)
	if s.log.Enabled(q.ctx, slog.LevelDebug) {
		s.log.LogAttrs(q.ctx, slog.LevelDebug, "learn", slog.Uint64("request", q.id),
			slog.String("label", label), slog.Uint64("generation", gen),
			slog.Int("classes", classes), slog.Duration("duration", time.Since(q.start)))
	}
}

// orDefault returns name, or def when name is empty.
func orDefault(name, def string) string {
	if name == "" {
		return def
	}
	return name
}

// createModelRequest is the POST /models body. The new model gets the
// server's base geometry; backend optionally overrides the item-memory
// backend, seed the item-memory seed (so tenants get independent item
// memories when they want them).
type createModelRequest struct {
	Name    string `json:"name"`
	Backend string `json:"backend,omitempty"`
	Seed    *int64 `json:"seed,omitempty"`
}

// handleModelsList answers GET /models with every model's Info.
func (s *apiServer) handleModelsList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"models": s.reg.List()})
}

// handleModelCreate answers POST /models: register a fresh model.
func (s *apiServer) handleModelCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	if s.readOnly {
		httpError(w, http.StatusForbidden, errReadOnly)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req createModelRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	cfg := s.baseConfig
	if req.Backend != "" {
		backend, err := hdc.ParseBackend(req.Backend)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		cfg.Backend = backend
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	if _, err := s.reg.Create(req.Name, cfg); err != nil {
		httpError(w, registryErrCode(err, http.StatusBadRequest), err)
		return
	}
	info, err := s.reg.ModelInfo(req.Name)
	if err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	s.log.Info("model created", "model", req.Name, "backend", cfg.Backend.String())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(info)
}

// handleModelInfo answers GET /models/{model} with one model's Info.
func (s *apiServer) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.ModelInfo(r.PathValue("model"))
	if err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// handleModelDelete answers DELETE /models/{model}: unregister the
// model and remove its on-disk state. The default model is protected —
// the legacy routes would dangle without it.
func (s *apiServer) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	if s.readOnly {
		httpError(w, http.StatusForbidden, errReadOnly)
		return
	}
	name := r.PathValue("model")
	if name == s.defaultModel {
		httpError(w, http.StatusConflict, fmt.Errorf("model %q is the default model and cannot be deleted", name))
		return
	}
	if err := s.reg.Delete(name); err != nil {
		httpError(w, registryErrCode(err, http.StatusInternalServerError), err)
		return
	}
	s.slo.Forget(name)
	s.log.Info("model deleted", "model", name)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "deleted", "model": name})
}
