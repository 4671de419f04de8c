package flight

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"pulphd/internal/obs"
)

// testRec builds a recorder holding a small request-shaped span tree.
func testRec(id uint64, spans int) *obs.Spans {
	rec := obs.NewSpans(spans + 4)
	root := rec.Start("request", obs.NoSpan)
	rec.Annotate(root, "id", int64(id))
	for i := 0; i < spans; i++ {
		sp := rec.Start("queue.wait", root)
		rec.End(sp)
	}
	rec.End(root)
	rec.ID = id
	return rec
}

func TestTriggerString(t *testing.T) {
	cases := map[Trigger]string{
		0:                       "none",
		TrigTimeout:             "timeout",
		TrigRetry | TrigTimeout: "timeout|retry",
		TrigError | TrigRetry:   "error|retry",
		TrigShed | TrigSlow:     "shed|slow",
	}
	for trig, want := range cases {
		if got := trig.String(); got != want {
			t.Errorf("Trigger(%b).String() = %q, want %q", trig, got, want)
		}
	}
}

func TestNilAndDisabledRing(t *testing.T) {
	var r *Ring
	r.Capture(testRec(1, 2), "m", 1, TrigError, time.Millisecond)
	if r.Captures() != 0 || r.Len() != 0 || r.Snapshot("") != nil || len(r.Summaries("")) != 0 {
		t.Fatal("nil ring holds state")
	}
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if NewRing(0, 8) != nil {
		t.Fatal("keep=0 should build the disabled (nil) ring")
	}
}

func TestCaptureFidelity(t *testing.T) {
	r := NewRing(4, 16)
	r.now = func() int64 { return 12345 }
	rec := testRec(42, 3)
	r.Capture(rec, "emg", 7, TrigTimeout|TrigRetry, 85*time.Millisecond)
	if r.Captures() != 1 || r.Len() != 1 {
		t.Fatalf("captures=%d len=%d", r.Captures(), r.Len())
	}
	got := r.Snapshot("")
	if len(got) != 1 {
		t.Fatalf("snapshot %d entries", len(got))
	}
	e := got[0]
	if e.Seq != 1 || e.ID != 42 || e.Model != "emg" || e.Generation != 7 ||
		e.Trigger != TrigTimeout|TrigRetry || e.UnixNanos != 12345 ||
		e.Duration != 85*time.Millisecond || e.Dropped != 0 {
		t.Fatalf("entry %+v", e)
	}
	if len(e.Spans) != 4 || e.Spans[0].Name != "request" || e.Spans[1].Name != "queue.wait" {
		t.Fatalf("spans %+v", e.Spans)
	}
	// A zero trigger must not capture: callers hand bits over blindly.
	r.Capture(rec, "emg", 7, 0, time.Millisecond)
	if r.Captures() != 1 {
		t.Fatal("zero trigger captured")
	}
	// A nil recorder still captures metadata (tracing disabled).
	r.Capture(nil, "bare", 1, TrigShed, time.Millisecond)
	entries := r.Snapshot("")
	last := entries[len(entries)-1]
	if last.Model != "bare" || last.ID != 0 || len(last.Spans) != 0 {
		t.Fatalf("nil-recorder entry %+v", last)
	}
}

func TestRingWrapAndOrder(t *testing.T) {
	r := NewRing(3, 8)
	for i := 1; i <= 5; i++ {
		r.Capture(testRec(uint64(i), 1), "m", uint64(i), TrigError, time.Duration(i)*time.Millisecond)
	}
	if r.Captures() != 5 || r.Len() != 3 {
		t.Fatalf("captures=%d len=%d", r.Captures(), r.Len())
	}
	got := r.Snapshot("")
	if len(got) != 3 || got[0].Seq != 3 || got[1].Seq != 4 || got[2].Seq != 5 {
		t.Fatalf("wrap order %+v", got)
	}
}

func TestModelFilter(t *testing.T) {
	r := NewRing(8, 8)
	r.Capture(testRec(1, 1), "a", 1, TrigError, time.Millisecond)
	r.Capture(testRec(2, 1), "b", 1, TrigTimeout, time.Millisecond)
	r.Capture(testRec(3, 1), "a", 2, TrigSlow, time.Millisecond)
	if got := r.Snapshot("a"); len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Fatalf("filter a: %+v", got)
	}
	if got := r.Summaries("b"); len(got) != 1 || got[0].Trigger != "timeout" {
		t.Fatalf("filter b: %+v", got)
	}
	if got := r.Snapshot("none"); len(got) != 0 {
		t.Fatalf("filter none: %+v", got)
	}
}

// TestSpanOverflowCounted pins the copy bound: a recorder holding more
// spans than the slot's preallocated capacity drops the tail and says
// so, instead of allocating.
func TestSpanOverflowCounted(t *testing.T) {
	r := NewRing(2, 2)
	r.Capture(testRec(9, 6), "m", 1, TrigError, time.Millisecond)
	e := r.Snapshot("")[0]
	if len(e.Spans) != 2 || e.Dropped != 5 {
		t.Fatalf("overflow entry: %d spans, %d dropped", len(e.Spans), e.Dropped)
	}
}

func TestWriteSummaryJSON(t *testing.T) {
	r := NewRing(4, 8)
	r.now = func() int64 { return 99 }
	r.Capture(testRec(7, 2), "emg", 3, TrigRetry|TrigSlow, 42*time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Captures uint64    `json:"captures"`
		Entries  []Summary `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, buf.String())
	}
	if doc.Captures != 1 || len(doc.Entries) != 1 {
		t.Fatalf("summary doc %+v", doc)
	}
	s := doc.Entries[0]
	if s.Request != 7 || s.Model != "emg" || s.Generation != 3 ||
		s.Trigger != "retry|slow" || s.DurationMs != 42 || s.Spans != 3 {
		t.Fatalf("summary entry %+v", s)
	}
	// An empty ring writes entries:[] (not null) for easy clients.
	buf.Reset()
	if err := NewRing(1, 1).WriteSummary(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"entries":[]`)) {
		t.Fatalf("empty summary %s", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRing(4, 8)
	r.Capture(testRec(11, 2), "emg", 5, TrigTimeout, 10*time.Millisecond)
	r.Capture(nil, "", 0, TrigShed, time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Pid   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	var procName string
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" && ev.Pid == 1 {
			procName, _ = ev.Args["name"].(string)
		}
		if ev.Phase == "X" && ev.Pid == 1 {
			spans++
			if ev.Args["model"] != "emg" || ev.Args["trigger"] != "timeout" {
				t.Fatalf("span args %+v", ev.Args)
			}
		}
	}
	if procName != "flight 1 · timeout · emg@5" {
		t.Fatalf("process label %q", procName)
	}
	if spans != 3 {
		t.Fatalf("span events %d, want 3", spans)
	}
}

// TestCaptureAllocs pins the capture path itself: once the ring is
// built, pinning a timeline allocates nothing (copies land in the
// slot's preallocated backing).
func TestCaptureAllocs(t *testing.T) {
	r := NewRing(8, 32)
	rec := testRec(1, 10)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Capture(rec, "emg", 1, TrigTimeout, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Capture allocates %v/op", allocs)
	}
}

// TestConcurrentCaptureDumpRecycle is the race hammer: writers pin
// timelines from recycled recorders while readers dump summaries and
// traces. Run under -race in CI.
func TestConcurrentCaptureDumpRecycle(t *testing.T) {
	r := NewRing(8, 16)
	tl := obs.NewTimelines(4, 16)
	const writers, iters = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := tl.Acquire(uint64(w*iters + i))
				root := obs.NoSpan
				if rec != nil {
					root = rec.Start("request", obs.NoSpan)
					sp := rec.Start("batch", root)
					rec.End(sp)
					rec.End(root)
				}
				r.Capture(rec, "emg", uint64(i), TrigError, time.Millisecond)
				tl.Release(rec)
			}
		}(w)
	}
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var buf bytes.Buffer
				if err := r.WriteSummary(&buf, ""); err != nil {
					t.Error(err)
					return
				}
				buf.Reset()
				if err := r.WriteChromeTrace(&buf, "emg"); err != nil {
					t.Error(err)
					return
				}
				_ = r.Len()
			}
		}()
	}
	wg.Wait()
	// Acquire hands out nil recorders under contention (free list
	// drained); metadata-only captures still count.
	if got := r.Captures(); got != writers*iters {
		t.Fatalf("captures %d, want %d", got, writers*iters)
	}
}
