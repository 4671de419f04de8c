package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"pulphd/internal/model"
	"pulphd/internal/obs"
	"pulphd/internal/obs/flight"
	"pulphd/internal/registry"
)

// DefaultSyncInterval is the gap between sync cycles when SyncConfig
// leaves Interval unset: one learn through the front becomes visible
// on every replica within this bound.
const DefaultSyncInterval = time.Second

// SyncConfig configures a replica's pull loop against its primary.
type SyncConfig struct {
	// Primary is the primary's base URL (http://host:port).
	Primary string
	// Registry is the replica's ephemeral registry; every synced model
	// installs into it. Persistent registries are refused — the primary
	// owns durability.
	Registry *registry.Registry
	// Shards is the associative-memory shard count installed models are
	// rebuilt with; values below 1 mean 1.
	Shards int
	// Interval is the gap between sync cycles; values ≤ 0 mean
	// DefaultSyncInterval.
	Interval time.Duration
	// Client is the HTTP client used against the primary; nil means a
	// client with a 30 s timeout.
	Client *http.Client
	// Timelines, when non-nil, records each cycle as a replica.sync
	// span tree (with one replica.fetch child per snapshot pulled);
	// Flight, when non-nil, pins cycles that error or overrun the
	// interval. Log defaults to discard. All three optional.
	Timelines *obs.Timelines
	Flight    *flight.Ring
	Log       *slog.Logger
}

// Syncer pulls model generations from a primary into a local
// ephemeral registry. One SyncOnce cycle lists the primary's models,
// fetches a snapshot for every model whose generation upper bound is
// ahead of the local copy, installs each under the registry's atomic
// served pointer, and drops local models the primary no longer has.
// Run loops cycles forever; tests call SyncOnce directly for
// deterministic convergence.
type Syncer struct {
	cfg    SyncConfig
	client *http.Client
	log    *slog.Logger

	syncs         obs.Counter
	syncErrors    obs.Counter
	snapshots     obs.Counter
	snapshotBytes obs.Counter
	syncNanos     obs.Histogram
	lagGens       *obs.GaugeVec
	// lastCaughtUp is the wall time (unix nanos) of the last cycle that
	// finished with every model at zero lag; pulphd_replica_lag_seconds
	// is now minus this. Initialized at construction, so a replica that
	// never catches up reports its age.
	lastCaughtUp atomic.Int64
	cycle        atomic.Uint64
}

// NewSyncer validates cfg and builds the syncer (not yet running).
func NewSyncer(cfg SyncConfig) (*Syncer, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: SyncConfig.Primary must be set")
	}
	if cfg.Registry == nil {
		return nil, errors.New("replica: SyncConfig.Registry must be set")
	}
	if cfg.Registry.Persistent() {
		return nil, errors.New("replica: replicas require an ephemeral registry (the primary owns durability)")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSyncInterval
	}
	s := &Syncer{
		cfg:     cfg,
		client:  cfg.Client,
		log:     cfg.Log,
		lagGens: obs.NewGaugeVec("model"),
	}
	if s.client == nil {
		s.client = &http.Client{Timeout: 30 * time.Second}
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.lastCaughtUp.Store(time.Now().UnixNano())
	return s, nil
}

// RegisterMetrics exposes the replication families on r (documented
// in docs/OPERATIONS.md).
func (s *Syncer) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("pulphd_replica_syncs_total",
		"Completed replica sync cycles against the primary.", &s.syncs)
	r.RegisterCounter("pulphd_replica_sync_errors_total",
		"Sync failures: primary unreachable, snapshot fetch/decode errors (CRC-rejected torn transfers land here), install failures.", &s.syncErrors)
	r.RegisterCounter("pulphd_replica_snapshots_total",
		"Model snapshots fetched and installed from the primary.", &s.snapshots)
	r.RegisterCounter("pulphd_replica_snapshot_bytes_total",
		"Snapshot bytes pulled from the primary.", &s.snapshotBytes)
	r.RegisterHistogram("pulphd_replica_sync_seconds",
		"Wall time of one full sync cycle (list + every snapshot fetched).", &s.syncNanos)
	r.RegisterGaugeVec("pulphd_replica_lag_generations",
		"Per-model generations this replica is behind the primary's last listing; 0 when caught up.", s.lagGens)
	r.RegisterGaugeFunc("pulphd_replica_lag_seconds",
		"Seconds since the last sync cycle that ended fully caught up.", func() float64 {
			return time.Since(time.Unix(0, s.lastCaughtUp.Load())).Seconds()
		})
}

// Run cycles SyncOnce every Interval until ctx is canceled.
func (s *Syncer) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		if err := s.SyncOnce(ctx); err != nil && ctx.Err() == nil {
			s.log.Warn("replica sync", "error", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// SyncOnce runs one sync cycle and returns the first error it hit.
// Per-model failures do not stop the cycle — the other models still
// sync — and a failed model keeps serving its previous generation.
func (s *Syncer) SyncOnce(ctx context.Context) error {
	start := time.Now()
	rec := s.cfg.Timelines.Acquire(s.cycle.Add(1))
	root := rec.Start("replica.sync", obs.NoSpan)
	var firstErr error
	var totalLag int64
	defer func() {
		dur := time.Since(start)
		s.syncNanos.Observe(dur)
		rec.Annotate(root, "lag_generations", totalLag)
		rec.End(root)
		var trig flight.Trigger
		if firstErr != nil {
			trig |= flight.TrigError
		}
		if dur > s.cfg.Interval {
			trig |= flight.TrigSlow
		}
		s.cfg.Flight.Capture(rec, "replica.sync", 0, trig, dur)
		s.cfg.Timelines.Release(rec)
	}()

	list, err := s.fetchList(ctx)
	if err != nil {
		s.syncErrors.Inc()
		firstErr = err
		return firstErr
	}
	onPrimary := make(map[string]bool, len(list.Models))
	for _, info := range list.Models {
		onPrimary[info.Name] = true
		upper := generationUpper(info)
		local, err := s.cfg.Registry.ModelInfo(info.Name)
		if err == nil && local.Generation >= upper {
			s.lagGens.With(info.Name).Set(0)
			continue
		}
		gen, err := s.fetchSnapshot(ctx, rec, root, info.Name)
		if err != nil {
			s.syncErrors.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("model %q: %w", info.Name, err)
			}
			gen = local.Generation // unchanged; lag reflects the miss
		}
		lag := int64(0)
		if upper > gen {
			lag = int64(upper - gen)
		}
		s.lagGens.With(info.Name).Set(lag)
		totalLag += lag
	}
	// Models the primary dropped leave the replica too; in-flight
	// predicts holding their Serving finish against it.
	for _, local := range s.cfg.Registry.List() {
		if onPrimary[local.Name] {
			continue
		}
		if err := s.cfg.Registry.Delete(local.Name); err == nil {
			s.lagGens.Delete(local.Name)
			s.log.Info("replica dropped model deleted on primary", "model", local.Name)
		}
	}
	s.syncs.Inc()
	if firstErr == nil && totalLag == 0 {
		s.lastCaughtUp.Store(time.Now().UnixNano())
	}
	return firstErr
}

func (s *Syncer) fetchList(ctx context.Context) (ListResponse, error) {
	var list ListResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cfg.Primary+"/replica/v1/models", nil)
	if err != nil {
		return list, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return list, fmt.Errorf("replica: list models: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return list, fmt.Errorf("replica: list models: primary answered %s", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&list); err != nil {
		return list, fmt.Errorf("replica: list models: %w", err)
	}
	return list, nil
}

// fetchSnapshot pulls one model's snapshot and installs it, returning
// the installed generation. A torn or corrupt transfer fails the
// snapshot's CRC check inside LoadServing and installs nothing — the
// replica keeps serving its previous generation and retries next
// cycle.
func (s *Syncer) fetchSnapshot(ctx context.Context, rec *obs.Spans, parent obs.SpanID, name string) (uint64, error) {
	id := rec.Start("replica.fetch", parent)
	defer rec.End(id)
	u := s.cfg.Primary + "/replica/v1/models/" + url.PathEscape(name) + "/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fetch snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fetch snapshot: primary answered %s", resp.Status)
	}
	cr := &countingReader{r: resp.Body}
	sv, _, err := model.LoadServing(cr, s.cfg.Shards)
	s.snapshotBytes.Add(cr.n)
	rec.Annotate(id, "bytes", cr.n)
	if err != nil {
		return 0, fmt.Errorf("decode snapshot: %w", err)
	}
	if err := s.cfg.Registry.Install(name, sv); err != nil {
		return 0, fmt.Errorf("install: %w", err)
	}
	s.snapshots.Inc()
	rec.Annotate(id, "generation", int64(sv.Generation()))
	return sv.Generation(), nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
