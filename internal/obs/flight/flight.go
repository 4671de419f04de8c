// Package flight is the serving tier's always-on flight recorder: a
// fixed-size ring of recently captured tail-event request timelines.
// The serving path runs with span recording on for every request (the
// obs.Timelines slab); when a request ends badly — timeout, error,
// shed, panic retry — or slower than its model's latency objective,
// its full span timeline is copied into the ring before the recorder
// is recycled. The ring is therefore a black box that always holds
// the last N incidents with request→decode→predict→search detail,
// model name and generation, dumpable as Chrome trace JSON (GET
// /debug/flight) and written to disk automatically on an SLO
// burn-rate breach.
//
// Capture copies into preallocated slots under one short mutex: no
// allocation once the ring is warm, no ownership games with the
// Timelines free list, and dump readers never block the serving path
// for longer than one entry copy.
package flight

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"

	"pulphd/internal/obs"
)

// Trigger is the bitmask of reasons a request's timeline was pinned.
type Trigger uint32

// Trigger bits, one per entry in the tail-event taxonomy (DESIGN.md
// §14). A capture may carry several: a retried request that still
// timed out is TrigRetry|TrigTimeout.
const (
	// TrigTimeout marks a request answered 504 at its deadline.
	TrigTimeout Trigger = 1 << iota
	// TrigError marks a 500 (retries exhausted, or the model failed).
	TrigError
	// TrigShed marks a 429 shed by queue backpressure.
	TrigShed
	// TrigRetry marks a request that needed at least one predict retry
	// after a recovered panic.
	TrigRetry
	// TrigSlow marks a request slower than its model's latency
	// objective.
	TrigSlow
)

// triggerNames orders the bit names for String.
var triggerNames = []struct {
	bit  Trigger
	name string
}{
	{TrigTimeout, "timeout"},
	{TrigError, "error"},
	{TrigShed, "shed"},
	{TrigRetry, "retry"},
	{TrigSlow, "slow"},
}

// String renders the set bits pipe-joined ("timeout|retry"), "none"
// for zero. Dump-path only; it allocates.
func (t Trigger) String() string {
	if t == 0 {
		return "none"
	}
	var parts []string
	for _, tn := range triggerNames {
		if t&tn.bit != 0 {
			parts = append(parts, tn.name)
		}
	}
	return strings.Join(parts, "|")
}

// Entry is one captured tail event: the request's identity, why it
// was pinned, and a copy of its span timeline.
type Entry struct {
	Seq        uint64 // 1-based capture sequence number
	ID         uint64 // request id (0 when tracing was off)
	Model      string // resolved tenant model ("" on legacy routes)
	Generation uint64 // model generation that served the request
	Trigger    Trigger
	UnixNanos  int64 // capture wall time
	Duration   time.Duration
	Dropped    int // spans the recorder had to drop
	Spans      []obs.Span
}

// Ring is the flight recorder. All methods are safe for concurrent
// use and nil-safe — a nil *Ring records nothing, so servers built
// without one pay a single pointer compare.
type Ring struct {
	mu      sync.Mutex
	entries []Entry
	next    int
	seq     uint64
	now     func() int64 // unix-nano clock, swappable in tests
}

// NewRing returns a recorder keeping the last keep captures of up to
// spanCap spans each, fully preallocated. keep < 1 returns nil (the
// disabled recorder).
func NewRing(keep, spanCap int) *Ring {
	if keep < 1 {
		return nil
	}
	if spanCap < 1 {
		spanCap = 1
	}
	r := &Ring{
		entries: make([]Entry, keep),
		now:     func() int64 { return time.Now().UnixNano() },
	}
	for i := range r.entries {
		r.entries[i].Spans = make([]obs.Span, 0, spanCap)
	}
	return r
}

// Capture pins one finished request into the ring: metadata always,
// plus a copy of rec's spans when tracing ran (rec may be nil). The
// caller must be done writing spans. A zero trigger is a no-op, so
// callers can unconditionally hand over their accumulated bits.
// Allocation-free: span copies land in the slot's preallocated
// backing array (overflow beyond its capacity is counted in Dropped).
func (r *Ring) Capture(rec *obs.Spans, model string, generation uint64, trig Trigger, dur time.Duration) {
	if r == nil || trig == 0 {
		return
	}
	r.mu.Lock()
	e := &r.entries[r.next]
	r.next = (r.next + 1) % len(r.entries)
	r.seq++
	e.Seq = r.seq
	e.Model = model
	e.Generation = generation
	e.Trigger = trig
	e.UnixNanos = r.now()
	e.Duration = dur
	e.ID = 0
	e.Dropped = 0
	e.Spans = e.Spans[:0]
	if rec != nil {
		e.ID = rec.ID
		e.Dropped = rec.Dropped()
		n := rec.Len()
		if over := n - cap(e.Spans); over > 0 {
			e.Dropped += over
			n = cap(e.Spans)
		}
		for i := 0; i < n; i++ {
			e.Spans = append(e.Spans, rec.Span(i))
		}
	}
	r.mu.Unlock()
}

// Captures returns how many tail events have ever been captured.
func (r *Ring) Captures() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Len returns how many captures the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.seq)
	if n > len(r.entries) {
		n = len(r.entries)
	}
	return n
}

// Snapshot returns deep copies of the held captures, oldest first,
// optionally scoped to one model ("" keeps all). Dump path: allocates.
func (r *Ring) Snapshot(model string) []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := int(r.seq)
	if held > len(r.entries) {
		held = len(r.entries)
	}
	start := r.next - held
	if start < 0 {
		start += len(r.entries)
	}
	out := make([]Entry, 0, held)
	for i := 0; i < held; i++ {
		e := r.entries[(start+i)%len(r.entries)]
		if model != "" && e.Model != model {
			continue
		}
		e.Spans = append([]obs.Span(nil), e.Spans...)
		out = append(out, e)
	}
	return out
}

// Summary is the compact per-capture record of ?summary=1 — what
// hdload attaches to capacity reports as tail-event evidence.
type Summary struct {
	Seq        uint64  `json:"seq"`
	Request    uint64  `json:"request"`
	Model      string  `json:"model"`
	Generation uint64  `json:"generation"`
	Trigger    string  `json:"trigger"`
	UnixNanos  int64   `json:"unix_ns"`
	DurationMs float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
}

// Summaries returns the held captures as compact summaries, oldest
// first, optionally scoped to one model.
func (r *Ring) Summaries(model string) []Summary {
	entries := r.Snapshot(model)
	out := make([]Summary, 0, len(entries))
	for _, e := range entries {
		out = append(out, Summary{
			Seq:        e.Seq,
			Request:    e.ID,
			Model:      e.Model,
			Generation: e.Generation,
			Trigger:    e.Trigger.String(),
			UnixNanos:  e.UnixNanos,
			DurationMs: float64(e.Duration) / 1e6,
			Spans:      len(e.Spans),
		})
	}
	return out
}

// summaryDoc is the ?summary=1 JSON envelope.
type summaryDoc struct {
	Captures uint64    `json:"captures"`
	Entries  []Summary `json:"entries"`
}

// WriteSummary renders the compact JSON summary of the held captures.
func (r *Ring) WriteSummary(w io.Writer, model string) error {
	doc := summaryDoc{Captures: r.Captures(), Entries: r.Summaries(model)}
	if doc.Entries == nil {
		doc.Entries = []Summary{}
	}
	return json.NewEncoder(w).Encode(doc)
}

// traceEvent and chromeTrace mirror the Trace Event Format JSON the
// obs exporter emits (its types are unexported); chrome://tracing and
// Perfetto load either.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the held captures as Chrome trace-event
// JSON, one process per capture labelled with sequence number, model,
// generation and trigger; span slices mirror the /debug/spans layout
// (track 0 the request tree, higher tracks the shard fan-out).
func (r *Ring) WriteChromeTrace(w io.Writer, model string) error {
	evs := []traceEvent{}
	for pid, e := range r.Snapshot(model) {
		evs = appendEntryEvents(evs, e, pid+1)
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ns"})
}

// appendEntryEvents renders one capture as one trace process.
func appendEntryEvents(evs []traceEvent, e Entry, pid int) []traceEvent {
	label := "flight " + utoa(e.Seq) + " · " + e.Trigger.String()
	if e.Model != "" {
		label += " · " + e.Model + "@" + utoa(e.Generation)
	}
	evs = append(evs, traceEvent{
		Name: "process_name", Phase: "M", Pid: pid,
		Args: map[string]any{"name": label},
	}, traceEvent{
		Name: "process_sort_index", Phase: "M", Pid: pid,
		Args: map[string]any{"sort_index": pid},
	})
	tracks := map[int32]bool{}
	for i, sp := range e.Spans {
		if !tracks[sp.Track] {
			tracks[sp.Track] = true
			name := "request"
			if sp.Track > 0 {
				name = "shard fan-out"
			}
			evs = append(evs, traceEvent{
				Name: "thread_name", Phase: "M", Pid: pid, Tid: int(sp.Track),
				Args: map[string]any{"name": name},
			})
		}
		end := sp.End
		if end < sp.Start {
			end = sp.Start
		}
		args := map[string]any{
			"span": i, "parent": int(sp.Parent),
			"request": e.ID, "model": e.Model, "generation": e.Generation,
			"trigger": e.Trigger.String(),
		}
		for _, a := range sp.Attrs {
			if a.Key != "" {
				args[a.Key] = a.Value
			}
		}
		dur := (end - sp.Start) / 1e3
		if dur < 1 {
			dur = 1
		}
		evs = append(evs, traceEvent{
			Name: sp.Name, Phase: "X", Ts: sp.Start / 1e3, Dur: dur,
			Pid: pid, Tid: int(sp.Track), Cat: "flight", Args: args,
		})
	}
	return evs
}

// utoa formats a uint64 for trace process labels.
func utoa(v uint64) string {
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(digits[i:])
}
