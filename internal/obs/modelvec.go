package obs

import (
	"sort"
	"sync"
	"time"
)

// This file is the per-tenant half of the serving observability: the
// model registry serves many named models from one process, so its
// gauges and counters need a `model` label dimension. GaugeVec is the
// one-label gauge family (CounterVec in drift.go is the two-label
// counter family); RegistryMetrics bundles everything the registry
// records, nil-safe like every other domain bundle in domains.go.

// GaugeVec is a family of gauges distinguished by one label value —
// per-model generation, class count, resident bytes. Cell lookup takes
// a lock (registry operations, not hot-path predicts, touch it); the
// returned *Gauge is the usual lock-free atomic.
type GaugeVec struct {
	mu    sync.RWMutex
	name  string
	cells map[string]*Gauge
}

// NewGaugeVec returns an empty family with the given label name.
func NewGaugeVec(label string) *GaugeVec {
	return &GaugeVec{name: label, cells: map[string]*Gauge{}}
}

// LabelName returns the label name.
func (v *GaugeVec) LabelName() string { return v.name }

// With returns the gauge for the label value, creating it on first
// use. Nil-safe: a nil family hands back a nil (no-op) gauge.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	g := v.cells[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.cells[value]; g == nil {
		g = &Gauge{}
		v.cells[value] = g
	}
	return g
}

// Delete drops the cell for the label value, so a deleted model stops
// exporting. A no-op on nil families and absent cells.
func (v *GaugeVec) Delete(value string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	delete(v.cells, value)
	v.mu.Unlock()
}

// GaugeCell is one exported cell of a GaugeVec.
type GaugeCell struct {
	Value string
	Gauge int64
}

// Snapshot returns every cell sorted by label value, for export.
func (v *GaugeVec) Snapshot() []GaugeCell {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := make([]GaugeCell, 0, len(v.cells))
	for value, g := range v.cells {
		out = append(out, GaugeCell{Value: value, Gauge: g.Value()})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// DeleteCells drops the cells for the label pair values whose first
// label equals value — how a deleted model's per-op request counters
// leave the exposition. A no-op on nil families.
func (v *CounterVec) DeleteCells(value string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	for key := range v.cells {
		if key[0] == value {
			delete(v.cells, key)
		}
	}
	v.mu.Unlock()
}

// RegistryMetrics instruments the multi-tenant model registry: the
// fleet gauges (how many models, how many resident, total resident
// bytes), the durability counters (WAL appends/replays, snapshots,
// evictions, fault-ins), and the per-model families exported with a
// `model` label.
type RegistryMetrics struct {
	// Models counts registered models; ResidentModels the subset
	// currently in memory; ResidentBytes their summed footprint.
	Models         Gauge
	ResidentModels Gauge
	ResidentBytes  Gauge
	// Evictions counts models written out and dropped under the
	// resident-bytes budget; FaultIns counts cold models loaded back on
	// first request (including recovery loads at first use).
	Evictions Counter
	FaultIns  Counter
	// WALAppends counts records logged; WALReplayed counts records
	// replayed onto snapshots during fault-in/recovery; SnapshotNanos
	// times per-model snapshot writes.
	WALAppends    Counter
	WALReplayed   Counter
	SnapshotNanos Histogram
	// WALFsyncNanos times the fsync after each durable WAL append;
	// FaultInNanos times whole cold-model loads, snapshot read plus WAL
	// replay.
	WALFsyncNanos Histogram
	FaultInNanos  Histogram
	// Per-model families, labelled by model name.
	Generation         *GaugeVec
	Classes            *GaugeVec
	ModelResidentBytes *GaugeVec
	ModelWALRecords    *GaugeVec
	RollingAccuracy    *GaugeVec
	// ModelRequests counts registry operations by (model, op) where op
	// is predict, learn, correct, create, delete, evict or fault_in.
	ModelRequests *CounterVec
}

// NewRegistryMetrics builds the bundle with its labelled families
// allocated (the zero value's nil families are valid but record
// nothing per-model).
func NewRegistryMetrics() *RegistryMetrics {
	return &RegistryMetrics{
		Generation:         NewGaugeVec("model"),
		Classes:            NewGaugeVec("model"),
		ModelResidentBytes: NewGaugeVec("model"),
		ModelWALRecords:    NewGaugeVec("model"),
		RollingAccuracy:    NewGaugeVec("model"),
		ModelRequests:      NewCounterVec("model", "op"),
	}
}

// RecordOp counts one registry operation against a named model.
func (m *RegistryMetrics) RecordOp(model, op string) {
	if m == nil {
		return
	}
	m.ModelRequests.With(model, op).Inc()
}

// RecordModelState updates one model's published-state gauges.
func (m *RegistryMetrics) RecordModelState(model string, generation uint64, classes, residentBytes, walRecords int) {
	if m == nil {
		return
	}
	m.Generation.With(model).Set(int64(generation))
	m.Classes.With(model).Set(int64(classes))
	m.ModelResidentBytes.With(model).Set(int64(residentBytes))
	m.ModelWALRecords.With(model).Set(int64(walRecords))
}

// RecordFleet updates the registry-wide gauges.
func (m *RegistryMetrics) RecordFleet(models, resident int, residentBytes int64) {
	if m == nil {
		return
	}
	m.Models.Set(int64(models))
	m.ResidentModels.Set(int64(resident))
	m.ResidentBytes.Set(residentBytes)
}

// RecordWALAppend counts one logged record.
func (m *RegistryMetrics) RecordWALAppend() {
	if m == nil {
		return
	}
	m.WALAppends.Inc()
}

// RecordSnapshot folds one per-model snapshot write.
func (m *RegistryMetrics) RecordSnapshot(d time.Duration) {
	if m == nil {
		return
	}
	m.SnapshotNanos.Observe(d)
}

// RecordEviction counts one model evicted to disk.
func (m *RegistryMetrics) RecordEviction() {
	if m == nil {
		return
	}
	m.Evictions.Inc()
}

// RecordFaultIn folds one cold-model load that replayed n WAL records
// and took d end to end (snapshot read + replay + publish).
func (m *RegistryMetrics) RecordFaultIn(replayed int, d time.Duration) {
	if m == nil {
		return
	}
	m.FaultIns.Inc()
	m.WALReplayed.Add(int64(replayed))
	m.FaultInNanos.Observe(d)
}

// RecordWALFsync times one fsync on the durable WAL append path.
func (m *RegistryMetrics) RecordWALFsync(d time.Duration) {
	if m == nil {
		return
	}
	m.WALFsyncNanos.Observe(d)
}

// RecordRollingAccuracy updates one model's drift gauge (permille; -1
// means no feedback signal yet).
func (m *RegistryMetrics) RecordRollingAccuracy(model string, permille int64) {
	if m == nil {
		return
	}
	m.RollingAccuracy.With(model).Set(permille)
}

// ForgetModel drops every per-model cell for a deleted model.
func (m *RegistryMetrics) ForgetModel(model string) {
	if m == nil {
		return
	}
	m.Generation.Delete(model)
	m.Classes.Delete(model)
	m.ModelResidentBytes.Delete(model)
	m.ModelWALRecords.Delete(model)
	m.RollingAccuracy.Delete(model)
	m.ModelRequests.DeleteCells(model)
}
