package hdc

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"pulphd/internal/hv"
	"pulphd/internal/obs"
	"pulphd/internal/parallel"
)

// ctxServing builds a trained serving model for the context-path tests.
func ctxServing(t *testing.T, shards int) (*Serving, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	sv, err := NewServing(servingConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Retrain(nil, syntheticSamples(sv.Config(), 5, 25, rng)); err != nil {
		t.Fatal(err)
	}
	return sv, syntheticSamples(sv.Config(), 5, 1, rng)[0].Window
}

// TestPredictCtxMatchesPredict pins that the instrumented path is
// bit-identical to the plain one, spans on and off, pooled and serial.
func TestPredictCtxMatchesPredict(t *testing.T) {
	sv, w := ctxServing(t, 4)
	pool := parallel.NewPool(2)
	defer pool.Close()
	ses := sv.NewSession()
	wantLabel, wantDist := ses.Predict(w)

	for _, tc := range []struct {
		name string
		ctx  context.Context
		pool *parallel.Pool
	}{
		{"plain ctx serial", context.Background(), nil},
		{"plain ctx pooled", context.Background(), pool},
		{"spans serial", obs.WithSpans(context.Background(), obs.NewSpans(32)), nil},
		{"spans pooled", obs.WithSpans(context.Background(), obs.NewSpans(32)), pool},
	} {
		label, dist := ses.PredictCtx(tc.ctx, tc.pool, w)
		if label != wantLabel || dist != wantDist {
			t.Errorf("%s: (%q,%d), want (%q,%d)", tc.name, label, dist, wantLabel, wantDist)
		}
	}
}

// TestPredictCtxSpanTree checks the recorded span topology: a predict
// root under the staged parent, encode and am.search children, and one
// am.shard span per shard on its own track.
func TestPredictCtxSpanTree(t *testing.T) {
	sv, w := ctxServing(t, 4)
	pool := parallel.NewPool(2)
	defer pool.Close()
	ses := sv.NewSession()

	rec := obs.NewSpans(64)
	rec.Reset(1)
	root := rec.Start("request", obs.NoSpan)
	rec.SetParent(root)
	ctx := obs.WithSpans(context.Background(), rec)
	if _, dist := ses.PredictCtx(ctx, pool, w); dist < 0 {
		t.Fatal("bad distance")
	}
	rec.End(root)

	shards := sv.AM().Shards()
	byName := map[string][]obs.Span{}
	for i := 0; i < rec.Len(); i++ {
		sp := rec.Span(i)
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for name, want := range map[string]int{
		"request": 1, "predict": 1, "encode": 1, "am.search": 1, "am.shard": shards,
	} {
		if len(byName[name]) != want {
			t.Fatalf("%d %q spans, want %d (all: %v)", len(byName[name]), name, want, byName)
		}
	}
	predict := byName["predict"][0]
	if predict.Parent != root {
		t.Errorf("predict parented to %d, want root %d", predict.Parent, root)
	}
	search := byName["am.search"][0]
	if search.Attrs[0].Key != "classes" || search.Attrs[0].Value != int64(sv.Classes()) {
		t.Errorf("am.search attrs %+v", search.Attrs)
	}
	tracks := map[int32]bool{}
	for _, sp := range byName["am.shard"] {
		if sp.Attrs[0].Key != "shard" {
			t.Errorf("am.shard lacks shard attr: %+v", sp)
		}
		if sp.Track == 0 {
			t.Error("am.shard on the main track")
		}
		tracks[sp.Track] = true
		if sp.End < sp.Start {
			t.Errorf("am.shard never ended: %+v", sp)
		}
	}
	if len(tracks) != shards {
		t.Errorf("%d distinct shard tracks, want %d", len(tracks), shards)
	}
	// Parent staging must be restored for the caller's next stage.
	if rec.Parent() != root {
		// predictStaged sets SetParent never; the handler stages it
		// per request, so Parent is whatever the caller set last.
		t.Errorf("Parent() = %d, want %d", rec.Parent(), root)
	}
}

// TestLearnCtxSpans checks the learn path records its encode and
// publish spans with the generation annotation.
func TestLearnCtxSpans(t *testing.T) {
	sv, w := ctxServing(t, 2)
	rec := obs.NewSpans(16)
	rec.Reset(2)
	ctx := obs.WithSpans(context.Background(), rec)
	gen := sv.Generation()
	if err := sv.LearnCtx(ctx, "rest", w); err != nil {
		t.Fatal(err)
	}
	var publish *obs.Span
	names := map[string]int{}
	for i := 0; i < rec.Len(); i++ {
		sp := rec.Span(i)
		names[sp.Name]++
		if sp.Name == "learn.publish" {
			publish = &sp
		}
	}
	if names["learn.encode"] != 1 || names["learn.publish"] != 1 {
		t.Fatalf("span names %v", names)
	}
	if publish.Attrs[0] != (obs.Attr{Key: "generation", Value: int64(gen + 1)}) {
		t.Errorf("publish attrs %+v, want generation %d", publish.Attrs, gen+1)
	}
	// The no-recorder ctx variants stay usable.
	if err := sv.LearnEncodedCtx(context.Background(), "rest", encodeFor(sv, w)); err != nil {
		t.Fatal(err)
	}
}

// encodeFor encodes one window with a throwaway session.
func encodeFor(sv *Serving, w [][]float64) hv.Vector {
	ses := sv.NewSession()
	ses.ctx.encodeTo(ses.ctx.query, w, sv.cfg.NGram)
	return ses.ctx.query
}

// TestPredictCtxAllocationFree pins the acceptance criterion: with no
// recorder in the context and no metrics installed, PredictCtx is the
// plain zero-allocation path; and even fully instrumented (metrics
// sink plus span recorder) the steady state allocates nothing.
func TestPredictCtxAllocationFree(t *testing.T) {
	sv, w := ctxServing(t, 8)
	pool := parallel.NewPool(2)
	defer pool.Close()
	ses := sv.NewSession()
	ctx := context.Background()
	ses.PredictCtx(ctx, pool, w) // warm scratch

	check := func(name string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times per run, want 0", name, allocs)
		}
	}
	check("PredictCtx disabled serial", func() { ses.PredictCtx(ctx, nil, w) })
	check("PredictCtx disabled pooled", func() { ses.PredictCtx(ctx, pool, w) })

	SetMetrics(&obs.InferenceMetrics{})
	defer SetMetrics(nil)
	rec := obs.NewSpans(64)
	sctx := obs.WithSpans(context.Background(), rec)
	check("PredictCtx instrumented", func() {
		rec.Reset(1)
		ses.PredictCtx(sctx, pool, w)
	})
}

// TestServingConcurrentPredictLearnWithSpans race-hammers the span
// recorder through the full serving path: several goroutines run
// pooled PredictCtx with their own recorders (per-shard spans land
// concurrently from pool workers) while a learner publishes
// generations through LearnCtx with another recorder, and an exporter
// renders completed timelines concurrently.
func TestServingConcurrentPredictLearnWithSpans(t *testing.T) {
	sv, w := ctxServing(t, 8)
	iters := 200
	if testing.Short() {
		iters = 40
	}
	tl := obs.NewTimelines(8, 64)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pool := parallel.NewPool(2)
			defer pool.Close()
			ses := sv.NewSession()
			for i := 0; i < iters; i++ {
				rec := tl.Acquire(uint64(g*iters + i))
				ctx := obs.WithSpans(context.Background(), rec)
				root := rec.Start("request", obs.NoSpan)
				rec.SetParent(root)
				if label, _ := ses.PredictCtx(ctx, pool, w); label == "" {
					t.Error("empty label")
					return
				}
				rec.End(root)
				tl.Release(rec)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := obs.NewSpans(16)
		for i := 0; i < iters/2; i++ {
			rec.Reset(uint64(1000 + i))
			ctx := obs.WithSpans(context.Background(), rec)
			if err := sv.LearnCtx(ctx, "rest", w); err != nil {
				t.Errorf("LearnCtx: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			var sink countingWriter
			if err := tl.WriteChromeTrace(&sink); err != nil {
				t.Errorf("export: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if tl.Requests() == 0 {
		t.Fatal("no timelines retained")
	}
}

// countingWriter discards exporter output.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
