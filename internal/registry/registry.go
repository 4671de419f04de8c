// Package registry is the multi-tenant model layer: many named,
// versioned serving models behind one process, each a copy-on-write
// hdc.Serving, each durable as a (snapshot, write-ahead log) pair on
// disk. Online Learn/Correct records are framed and logged before they
// are applied, so a restart — graceful or kill -9 — replays the WAL
// tail onto the latest snapshot and recovers every model to its exact
// pre-crash generation, byte for byte. Cold models are evicted to disk
// under a configurable resident-bytes budget (least recently used
// first) and faulted back in on their next request.
//
// Locking is two-level and ordered registry → entry: the registry
// mutex guards the name table and the manifest, each entry's mutex
// serializes that model's state transitions (learn, snapshot, evict,
// fault-in, delete), and the entry holds its Serving behind an atomic
// pointer so the predict path reads it lock-free once it has the
// entry.
package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/model"
	"pulphd/internal/obs"
)

// DefaultSnapshotEvery is the WAL record count that triggers an
// automatic per-model snapshot when Config.SnapshotEvery is unset:
// frequent enough to keep replay short, rare enough that snapshot
// cost amortizes across many learns.
const DefaultSnapshotEvery = 256

// Sentinel errors the HTTP layer maps onto status codes.
var (
	ErrNotFound = errors.New("registry: model not found")
	ErrExists   = errors.New("registry: model already exists")
	ErrClosed   = errors.New("registry: closed")
)

// Config configures a Registry.
type Config struct {
	// Dir is the state directory holding MANIFEST, <name>.snap and
	// <name>.wal. Empty means ephemeral: models live in memory only,
	// nothing persists, and eviction is disabled (dropping a model
	// without a snapshot would lose it).
	Dir string
	// Shards is the associative-memory shard count for every model the
	// registry constructs or loads; values below 1 mean 1.
	Shards int
	// ResidentBudget caps the summed ResidentBytes of in-memory models;
	// past it, least-recently-used models are snapshotted and dropped.
	// Zero or negative means unlimited. Ignored when Dir is empty.
	ResidentBudget int64
	// SnapshotEvery is how many WAL records a model accumulates before
	// an automatic snapshot folds them in and truncates the log; values
	// below 1 mean DefaultSnapshotEvery.
	SnapshotEvery int
	// SyncWAL fsyncs every WAL append: single-record durability against
	// power loss, at a large per-learn latency cost. Off, a kill -9
	// still loses nothing (the page cache survives the process); only
	// an OS crash can lose the unsynced tail.
	SyncWAL bool
	// Metrics, when set, receives the pulphd_model_* and registry fleet
	// series. SetMetrics can install or replace it later.
	Metrics *obs.RegistryMetrics
}

// Info is one model's row in List: identity, residency, and the
// published state (live values when resident, the last known
// snapshot-plus-log view when cold).
type Info struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
	// Generation is the published model generation: exact when
	// resident; when cold, the generation the snapshot was cut at (WAL
	// records not yet folded in are counted separately below).
	Generation uint64 `json:"generation"`
	Classes    int    `json:"classes"`
	// ResidentBytes is the in-memory footprint; zero when cold.
	ResidentBytes int `json:"resident_bytes"`
	// WALRecords is the log-tail length a restart or fault-in replays.
	WALRecords int `json:"wal_records"`
	// RollingAccuracyPermille is the model's drift signal (-1 until
	// feedback arrives; process-local, not replayed).
	RollingAccuracyPermille int64 `json:"rolling_accuracy_permille"`
}

// entry is one named model. Its mutex serializes state transitions;
// sv is nil while the model is evicted to disk. The generation,
// classes and walRecords fields mirror the last known state for
// listing cold models without faulting them in; they are guarded by
// the entry mutex.
type entry struct {
	name string
	mu   sync.Mutex
	sv   atomic.Pointer[hdc.Serving]
	// wal is non-nil exactly while the model is resident in a
	// persistent registry.
	wal     *WAL
	drift   obs.DriftMonitor
	lastUse atomic.Int64
	deleted bool

	generation uint64
	classes    int
	walRecords int
}

// Registry is the multi-tenant model table. Safe for concurrent use.
type Registry struct {
	cfg     Config
	mu      sync.RWMutex
	entries map[string]*entry
	clock   atomic.Int64
	metrics atomic.Pointer[obs.RegistryMetrics]
	closed  bool
}

// Open opens (creating if needed) the registry rooted at cfg.Dir, or
// an ephemeral registry when cfg.Dir is empty. Every model the
// manifest lists is verified to have a readable snapshot head — its
// configuration, generation and class count — but models are NOT
// loaded: they fault in on first use. Torn WAL tails are truncated
// away during the scan, so the directory is clean after Open returns.
func Open(cfg Config) (*Registry, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.SnapshotEvery < 1 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	r := &Registry{cfg: cfg, entries: map[string]*entry{}}
	if cfg.Metrics != nil {
		r.metrics.Store(cfg.Metrics)
	}
	if cfg.Dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", cfg.Dir, err)
	}
	names, err := readManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		e := &entry{name: name}
		f, err := os.Open(r.snapPath(name))
		if err != nil {
			return nil, fmt.Errorf("registry: model %q in manifest but snapshot unreadable: %w", name, err)
		}
		meta, err := model.ReadServingMeta(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("registry: model %q snapshot head: %w", name, err)
		}
		recs, err := ReplayWAL(r.walPath(name))
		if err != nil {
			return nil, fmt.Errorf("registry: model %q: %w", name, err)
		}
		e.generation = meta.Generation
		e.classes = meta.Classes
		e.walRecords = len(recs)
		r.entries[name] = e
		m := r.m()
		m.RecordModelState(name, e.generation, e.classes, 0, e.walRecords)
		m.RecordRollingAccuracy(name, e.drift.RollingAccuracyPermille())
	}
	r.recordFleet()
	return r, nil
}

// SetMetrics installs (or replaces) the metrics sink.
func (r *Registry) SetMetrics(m *obs.RegistryMetrics) { r.metrics.Store(m) }

// Metrics returns the installed metrics sink; nil (safe to call
// through) when none is installed.
func (r *Registry) Metrics() *obs.RegistryMetrics { return r.m() }

func (r *Registry) m() *obs.RegistryMetrics { return r.metrics.Load() }

// Persistent reports whether the registry has a state directory.
func (r *Registry) Persistent() bool { return r.cfg.Dir != "" }

// Dir returns the state directory ("" for ephemeral registries).
func (r *Registry) Dir() string { return r.cfg.Dir }

func (r *Registry) snapPath(name string) string { return filepath.Join(r.cfg.Dir, name+".snap") }
func (r *Registry) walPath(name string) string  { return filepath.Join(r.cfg.Dir, name+".wal") }

func (r *Registry) touch(e *entry) { e.lastUse.Store(r.clock.Add(1)) }

// Create registers a fresh, empty model under name and returns its
// Serving. In a persistent registry the model's snapshot and WAL land
// on disk, and the manifest republishes, before Create returns.
func (r *Registry) Create(name string, mc hdc.Config) (*hdc.Serving, error) {
	sv, err := hdc.NewServing(mc, r.cfg.Shards)
	if err != nil {
		return nil, err
	}
	return sv, r.adopt(name, sv, "create")
}

// Adopt registers an existing Serving under name — how a model trained
// elsewhere (or the demo model the serve command boots with) enters
// the registry. Persistent registries snapshot its current state
// immediately, so the adopted model is durable from the start.
func (r *Registry) Adopt(name string, sv *hdc.Serving) error {
	return r.adopt(name, sv, "adopt")
}

func (r *Registry) adopt(name string, sv *hdc.Serving, op string) error {
	if err := ValidateModelName(name); err != nil {
		return err
	}
	e, err := r.adoptLocked(name, sv, op)
	if err != nil {
		return err
	}
	r.enforceBudget(context.Background(), e)
	return nil
}

func (r *Registry) adoptLocked(name string, sv *hdc.Serving, op string) (*entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if _, ok := r.entries[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &entry{name: name}
	e.sv.Store(sv)
	if r.Persistent() {
		// Files first, manifest last: a crash in between leaves orphan
		// files the manifest never promised, which the next Open ignores.
		if err := r.writeSnapshot(name, sv, 1); err != nil {
			return nil, err
		}
		wal, err := OpenWAL(r.walPath(name), 1, 0, r.cfg.SyncWAL)
		if err != nil {
			os.Remove(r.snapPath(name))
			return nil, err
		}
		names := make([]string, 0, len(r.entries)+1)
		for n := range r.entries {
			names = append(names, n)
		}
		if err := writeManifest(r.cfg.Dir, append(names, name)); err != nil {
			wal.Close()
			os.Remove(r.snapPath(name))
			os.Remove(r.walPath(name))
			return nil, err
		}
		e.wal = wal
	}
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	r.entries[name] = e
	r.touch(e)
	m := r.m()
	m.RecordOp(name, op)
	m.RecordModelState(name, e.generation, e.classes, sv.ResidentBytes(), 0)
	m.RecordRollingAccuracy(name, e.drift.RollingAccuracyPermille())
	r.recordFleetLocked()
	return e, nil
}

// Delete unregisters name and removes its on-disk state. In-flight
// predicts holding the model's Serving finish against it; new lookups
// fail with ErrNotFound.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		if r.closed {
			return ErrClosed
		}
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.entries, name)
	var manifestErr error
	if r.Persistent() {
		names := make([]string, 0, len(r.entries))
		for n := range r.entries {
			names = append(names, n)
		}
		manifestErr = writeManifest(r.cfg.Dir, names)
	}
	r.recordFleetLocked()
	r.mu.Unlock()

	e.mu.Lock()
	e.deleted = true
	if e.wal != nil {
		e.wal.Close()
		e.wal = nil
	}
	e.sv.Store(nil)
	e.mu.Unlock()
	if r.Persistent() {
		os.Remove(r.snapPath(name))
		os.Remove(r.walPath(name))
	}
	m := r.m()
	m.RecordOp(name, "delete")
	m.ForgetModel(name)
	return manifestErr
}

// lookup finds the live entry for name.
func (r *Registry) lookup(name string) (*entry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Serving returns the named model's Serving, faulting it in from disk
// if it was evicted. The hot path — model resident — is one map read
// under RLock and one atomic load.
func (r *Registry) Serving(name string) (*hdc.Serving, error) {
	return r.ServingCtx(context.Background(), name)
}

// ServingCtx is Serving with a request context: when the lookup has to
// fault the model in, the registry.faultin/registry.recover spans land
// on the recorder the context carries, so the stall shows up inside
// the request's own timeline.
func (r *Registry) ServingCtx(ctx context.Context, name string) (*hdc.Serving, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	if sv := e.sv.Load(); sv != nil {
		r.touch(e)
		return sv, nil
	}
	e.mu.Lock()
	sv, err := r.residentLocked(ctx, e)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r.touch(e)
	r.enforceBudget(ctx, e)
	return sv, nil
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	_, err := r.lookup(name)
	return err == nil
}

// residentLocked ensures e's model is in memory, loading the snapshot
// and replaying the WAL tail when it is not. Caller holds e.mu. The
// whole load is wrapped in a registry.faultin span (the WAL replay in
// a nested registry.recover span) and timed into the fault-in latency
// histogram, because a cold model stalls the request paying for it.
func (r *Registry) residentLocked(ctx context.Context, e *entry) (*hdc.Serving, error) {
	if e.deleted {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, e.name)
	}
	if sv := e.sv.Load(); sv != nil {
		return sv, nil
	}
	start := time.Now()
	sp := obs.SpansFrom(ctx)
	fi := sp.Start("registry.faultin", sp.Parent())
	defer sp.End(fi)
	f, err := os.Open(r.snapPath(e.name))
	if err != nil {
		return nil, fmt.Errorf("registry: model %q snapshot: %w", e.name, err)
	}
	sv, snapSeq, err := model.LoadServing(f, r.cfg.Shards)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("registry: model %q snapshot: %w", e.name, err)
	}
	rc := sp.Start("registry.recover", fi)
	recs, err := ReplayWAL(r.walPath(e.name))
	if err != nil {
		sp.End(rc)
		return nil, fmt.Errorf("registry: model %q: %w", e.name, err)
	}
	nextSeq := snapSeq
	if nextSeq < 1 {
		nextSeq = 1
	}
	replayed := 0
	for _, rec := range recs {
		if rec.Seq < snapSeq {
			// Stale record from a snapshot that landed before the WAL
			// truncated (crash in the gap): already folded in, skip.
			continue
		}
		// Apply errors are ignored deliberately: a record that failed to
		// apply live (e.g. a fixed-prototype class) also fails here, so
		// ignoring the error reproduces the pre-crash state exactly.
		_ = sv.Learn(rec.Label, rec.Window)
		replayed++
		nextSeq = rec.Seq + 1
	}
	sp.Annotate(rc, "replayed", int64(replayed))
	sp.End(rc)
	wal, err := OpenWAL(r.walPath(e.name), nextSeq, len(recs), r.cfg.SyncWAL)
	if err != nil {
		return nil, err
	}
	e.wal = wal
	e.sv.Store(sv)
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	e.walRecords = len(recs)
	sp.Annotate(fi, "generation", int64(e.generation))
	m := r.m()
	m.RecordOp(e.name, "fault_in")
	m.RecordFaultIn(replayed, time.Since(start))
	m.RecordModelState(e.name, e.generation, e.classes, sv.ResidentBytes(), e.walRecords)
	r.recordFleet()
	return sv, nil
}

// Learn logs and applies one online learning record against the named
// model: validate, append to the WAL, apply to the Serving, ack — in
// that order, so every acknowledged learn survives a crash.
func (r *Registry) Learn(name, label string, window [][]float64) error {
	return r.apply(context.Background(), name, OpLearn, label, window)
}

// LearnCtx is Learn with a request context carried into the model's
// publish path (span recorders ride it).
func (r *Registry) LearnCtx(ctx context.Context, name, label string, window [][]float64) error {
	return r.apply(ctx, name, OpLearn, label, window)
}

// Correct is Learn arriving as online correction feedback: it replays
// identically but also scores the model's prediction for the window
// against the corrected label in the drift monitor.
func (r *Registry) Correct(name, label string, window [][]float64) error {
	return r.apply(context.Background(), name, OpCorrect, label, window)
}

// CorrectCtx is Correct with a request context.
func (r *Registry) CorrectCtx(ctx context.Context, name, label string, window [][]float64) error {
	return r.apply(ctx, name, OpCorrect, label, window)
}

func (r *Registry) apply(ctx context.Context, name string, op Op, label string, window [][]float64) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	e.mu.Lock()
	err = r.applyLocked(ctx, e, op, label, window)
	e.mu.Unlock()
	r.touch(e)
	r.enforceBudget(ctx, e)
	return err
}

func (r *Registry) applyLocked(ctx context.Context, e *entry, op Op, label string, window [][]float64) error {
	sv, err := r.residentLocked(ctx, e)
	if err != nil {
		return err
	}
	if label == "" || len(label) > maxWALLabelLen {
		return fmt.Errorf("registry: label length %d out of range [1,%d]", len(label), maxWALLabelLen)
	}
	if err := sv.ValidateWindow(window); err != nil {
		return err
	}
	if len(window) > maxWALRows || len(window[0]) > maxWALCols {
		return fmt.Errorf("registry: window %d×%d exceeds wal limits", len(window), len(window[0]))
	}
	m := r.m()
	// Correction feedback scores what the model would have said against
	// the ground truth we are about to learn — the drift signal.
	if op == OpCorrect && sv.Classes() > 0 {
		predicted, _ := sv.Predict(window)
		e.drift.RecordFeedback(predicted, label)
		m.RecordRollingAccuracy(e.name, e.drift.RollingAccuracyPermille())
	}
	if e.wal != nil {
		fsync, err := e.wal.AppendCtx(ctx, op, label, window)
		if err != nil {
			return err
		}
		m.RecordWALAppend()
		if r.cfg.SyncWAL {
			m.RecordWALFsync(fsync)
		}
		e.walRecords = e.wal.Records()
	}
	learnErr := sv.LearnCtx(ctx, label, window)
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	m.RecordOp(e.name, op.String())
	m.RecordModelState(e.name, e.generation, e.classes, sv.ResidentBytes(), e.walRecords)
	if e.wal != nil && e.wal.Records() >= r.cfg.SnapshotEvery {
		if err := r.snapshotLocked(ctx, e); err != nil {
			return err
		}
	}
	return learnErr
}

// Snapshot forces the named model's snapshot to disk and truncates its
// WAL. A no-op for ephemeral registries and cold models (their
// snapshot is already their state).
func (r *Registry) Snapshot(name string) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted || !r.Persistent() || e.sv.Load() == nil {
		return nil
	}
	return r.snapshotLocked(context.Background(), e)
}

// snapshotLocked cuts e's snapshot and truncates its WAL. Caller holds
// e.mu; the model is resident and the registry persistent. The write
// lands as a registry.snapshot span on any recorder ctx carries — an
// auto-snapshot happens inside the learn that tripped the cadence, so
// the stall belongs to that request's timeline.
func (r *Registry) snapshotLocked(ctx context.Context, e *entry) error {
	start := time.Now()
	sv := e.sv.Load()
	sp := obs.SpansFrom(ctx)
	id := sp.Start("registry.snapshot", sp.Parent())
	sp.Annotate(id, "generation", int64(sv.Generation()))
	sp.Annotate(id, "wal_records", int64(e.walRecords))
	defer sp.End(id)
	if err := r.writeSnapshot(e.name, sv, e.wal.NextSeq()); err != nil {
		return err
	}
	if err := e.wal.Reset(); err != nil {
		return err
	}
	e.walRecords = 0
	m := r.m()
	m.RecordSnapshot(time.Since(start))
	m.RecordModelState(e.name, sv.Generation(), sv.Classes(), sv.ResidentBytes(), 0)
	return nil
}

// writeSnapshot writes sv's state to <name>.snap atomically: temp
// file, fsync, rename. The fsync before the rename matters — without
// it a crash could publish a name pointing at unwritten bytes, and
// the WAL that would have re-derived them truncates right after.
func (r *Registry) writeSnapshot(name string, sv *hdc.Serving, walSeq uint64) error {
	tmp := r.snapPath(name) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("registry: creating snapshot: %w", err)
	}
	if err := model.SaveServing(f, sv, walSeq); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("registry: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("registry: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, r.snapPath(name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("registry: publishing snapshot: %w", err)
	}
	return nil
}

// EnforceBudget evicts least-recently-used resident models until the
// summed resident bytes fit the budget. Eviction also runs
// automatically after create, fault-in and learn; this is the
// explicit trigger for tests and admin use.
func (r *Registry) EnforceBudget() { r.enforceBudget(context.Background(), nil) }

// enforceBudget evicts LRU resident models until resident bytes fit
// the budget, never evicting keep (the entry that just served —
// evicting it would thrash). Evictions triggered by a request land as
// registry.evict spans on the recorder ctx carries.
func (r *Registry) enforceBudget(ctx context.Context, keep *entry) {
	if !r.Persistent() || r.cfg.ResidentBudget <= 0 {
		return
	}
	for {
		victim, total := r.pickVictim(keep)
		if total <= r.cfg.ResidentBudget || victim == nil {
			return
		}
		victim.mu.Lock()
		// Re-check under the entry lock: the model may have been deleted
		// or already evicted while we were choosing it.
		if !victim.deleted && victim.sv.Load() != nil {
			if err := r.evictLocked(ctx, victim); err != nil {
				victim.mu.Unlock()
				return
			}
		}
		victim.mu.Unlock()
	}
}

// pickVictim returns the least-recently-used resident entry other
// than keep, plus the current total resident bytes.
func (r *Registry) pickVictim(keep *entry) (*entry, int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var victim *entry
	var victimUse int64
	var total int64
	for _, e := range r.entries {
		sv := e.sv.Load()
		if sv == nil {
			continue
		}
		total += int64(sv.ResidentBytes())
		if e == keep {
			continue
		}
		if use := e.lastUse.Load(); victim == nil || use < victimUse {
			victim, victimUse = e, use
		}
	}
	return victim, total
}

// evictLocked snapshots e (folding its WAL in) and drops its resident
// state. Caller holds e.mu; the model is resident.
func (r *Registry) evictLocked(ctx context.Context, e *entry) error {
	sp := obs.SpansFrom(ctx)
	id := sp.Start("registry.evict", sp.Parent())
	sv0 := e.sv.Load()
	sp.Annotate(id, "bytes", int64(sv0.ResidentBytes()))
	defer sp.End(id)
	if err := r.snapshotLocked(ctx, e); err != nil {
		return err
	}
	e.wal.Close()
	e.wal = nil
	sv := e.sv.Load()
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	e.sv.Store(nil)
	m := r.m()
	m.RecordOp(e.name, "evict")
	m.RecordEviction()
	m.RecordModelState(e.name, e.generation, e.classes, 0, 0)
	r.recordFleet()
	return nil
}

// List returns every model's Info, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		out = append(out, r.info(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ModelInfo returns one model's Info.
func (r *Registry) ModelInfo(name string) (Info, error) {
	e, err := r.lookup(name)
	if err != nil {
		return Info{}, err
	}
	return r.info(e), nil
}

func (r *Registry) info(e *entry) Info {
	e.mu.Lock()
	defer e.mu.Unlock()
	info := Info{
		Name:                    e.name,
		Generation:              e.generation,
		Classes:                 e.classes,
		WALRecords:              e.walRecords,
		RollingAccuracyPermille: e.drift.RollingAccuracyPermille(),
	}
	if sv := e.sv.Load(); sv != nil {
		info.Resident = true
		info.Generation = sv.Generation()
		info.Classes = sv.Classes()
		info.ResidentBytes = sv.ResidentBytes()
	}
	return info
}

// Len returns how many models are registered.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// recordFleet publishes the fleet gauges.
func (r *Registry) recordFleet() {
	if r.m() == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.recordFleetLocked()
}

// recordFleetLocked is recordFleet for callers already holding r.mu.
func (r *Registry) recordFleetLocked() {
	resident := 0
	var bytes int64
	for _, e := range r.entries {
		if sv := e.sv.Load(); sv != nil {
			resident++
			bytes += int64(sv.ResidentBytes())
		}
	}
	r.m().RecordFleet(len(r.entries), resident, bytes)
}

// Close snapshots every resident model (folding WAL tails into clean
// snapshots), closes the logs, and marks the registry closed. The
// first error is returned but every model is still attempted.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	var first error
	for _, e := range entries {
		e.mu.Lock()
		if !e.deleted && e.sv.Load() != nil && r.Persistent() {
			if err := r.snapshotLocked(context.Background(), e); err != nil && first == nil {
				first = err
			}
		}
		if e.wal != nil {
			if err := e.wal.Close(); err != nil && first == nil {
				first = err
			}
			e.wal = nil
		}
		e.mu.Unlock()
	}
	return first
}
