package obs

import (
	"sort"
	"sync"
)

// This file is the online accuracy/drift monitor of the serving
// stack, plus the two-label counter family. The feedback signal is a
// correcting /learn: when a client corrects a decision, the registry
// learns what the model predicted and what the window actually was —
// a labelled sample of serving accuracy. The monitor keeps a rolling
// agreement window that surfaces drift: a falling rolling accuracy
// means the data moved from under the model.

// CounterVec is a family of counters distinguished by a fixed pair of
// label names, such as per-(model, op) registry requests. Cell lookup
// takes a read lock (registry operations, not hot-path predicts,
// touch it); the returned *Counter is the usual lock-free atomic.
type CounterVec struct {
	mu    sync.RWMutex
	names [2]string
	cells map[[2]string]*Counter
}

// NewCounterVec returns an empty family with the given label names.
func NewCounterVec(name1, name2 string) *CounterVec {
	return &CounterVec{names: [2]string{name1, name2}, cells: map[[2]string]*Counter{}}
}

// LabelNames returns the two label names.
func (v *CounterVec) LabelNames() (string, string) { return v.names[0], v.names[1] }

// With returns the counter for the given label values, creating it on
// first use. Nil-safe: a nil family hands back a nil (no-op) counter.
func (v *CounterVec) With(v1, v2 string) *Counter {
	if v == nil {
		return nil
	}
	key := [2]string{v1, v2}
	v.mu.RLock()
	c := v.cells[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.cells[key]; c == nil {
		c = &Counter{}
		v.cells[key] = c
	}
	return c
}

// VecCell is one exported cell of a CounterVec.
type VecCell struct {
	Values [2]string
	Count  int64
}

// Snapshot returns every cell sorted by label values, for export.
func (v *CounterVec) Snapshot() []VecCell {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := make([]VecCell, 0, len(v.cells))
	for key, c := range v.cells {
		out = append(out, VecCell{Values: key, Count: c.Value()})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Values[0] != out[j].Values[0] {
			return out[i].Values[0] < out[j].Values[0]
		}
		return out[i].Values[1] < out[j].Values[1]
	})
	return out
}

// driftWindow is the rolling agreement window size: small enough to
// react within a session, large enough that one bad correction does
// not swing the gauge.
const driftWindow = 256

// DriftMonitor accumulates prediction-vs-correction feedback. The
// zero value is ready to use, and every method is nil-safe, so an
// uninstalled monitor is free.
type DriftMonitor struct {
	mu      sync.Mutex
	ring    [driftWindow]bool
	n       int // total feedbacks ever
	correct int // agreements currently in the ring
}

// RecordFeedback folds one corrected decision in: the model said
// predicted, the truth was actual.
func (d *DriftMonitor) RecordFeedback(predicted, actual string) {
	if d == nil {
		return
	}
	ok := predicted == actual
	d.mu.Lock()
	slot := d.n % driftWindow
	if d.n >= driftWindow && d.ring[slot] {
		d.correct--
	}
	d.ring[slot] = ok
	if ok {
		d.correct++
	}
	d.n++
	d.mu.Unlock()
}

// RollingAccuracyPermille returns the agreement rate over the last
// driftWindow feedbacks, in thousandths (gauges are integers); -1
// when no feedback has arrived yet, so dashboards can distinguish
// "no signal" from "everything wrong".
func (d *DriftMonitor) RollingAccuracyPermille() int64 {
	if d == nil {
		return -1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.n
	if n == 0 {
		return -1
	}
	if n > driftWindow {
		n = driftWindow
	}
	return int64(d.correct) * 1000 / int64(n)
}
