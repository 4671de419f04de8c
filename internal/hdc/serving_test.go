package hdc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pulphd/internal/hv"
	"pulphd/internal/obs"
	"pulphd/internal/parallel"
)

// servingConfig is a small geometry that keeps these tests fast.
func servingConfig() Config {
	cfg := EMGConfig()
	cfg.D = 640
	return cfg
}

// syntheticSamples draws n labelled windows over k classes, each
// class a noisy cloud around its own operating point so the task is
// learnable.
func syntheticSamples(cfg Config, k, n int, rng *rand.Rand) []Sample {
	samples := make([]Sample, n)
	span := cfg.MaxLevel - cfg.MinLevel
	for i := range samples {
		class := i % k
		w := make([][]float64, cfg.Window)
		for t := range w {
			row := make([]float64, cfg.Channels)
			for c := range row {
				center := cfg.MinLevel + span*(float64((class*7+c*3)%k)+0.5)/float64(k)
				row[c] = center + rng.NormFloat64()*span*0.02
			}
			w[t] = row
		}
		samples[i] = Sample{Label: string(rune('A' + class)), Window: w}
	}
	return samples
}

func TestServingLearnPublishesMonotonicGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sv, err := NewServing(servingConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Generation() != 0 || sv.Classes() != 0 {
		t.Fatalf("fresh serving at generation %d with %d classes", sv.Generation(), sv.Classes())
	}
	samples := syntheticSamples(sv.Config(), 3, 12, rng)
	for i, s := range samples {
		if err := sv.Learn(s.Label, s.Window); err != nil {
			t.Fatal(err)
		}
		if got := sv.Generation(); got != uint64(i+1) {
			t.Fatalf("after learn %d: generation %d, want %d", i, got, i+1)
		}
	}
	if sv.Classes() != 3 {
		t.Fatalf("classes %d, want 3", sv.Classes())
	}
	// The learned model classifies its own training samples.
	correct := 0
	for _, s := range samples {
		if label, _ := sv.Predict(s.Window); label == s.Label {
			correct++
		}
	}
	if correct < len(samples)*3/4 {
		t.Fatalf("only %d/%d training samples recalled", correct, len(samples))
	}
}

func TestServingLearnValidates(t *testing.T) {
	sv, err := NewServing(servingConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Learn("x", [][]float64{{1, 2}}); err == nil {
		t.Fatal("Learn accepted a window with the wrong channel count")
	}
	if err := sv.Learn("x", nil); err == nil {
		t.Fatal("Learn accepted an empty window")
	}
	if err := sv.LearnEncoded("", hv.New(sv.Config().D)); err == nil {
		t.Fatal("LearnEncoded accepted an empty label")
	}
	if err := sv.LearnEncoded("x", hv.New(17)); err == nil {
		t.Fatal("LearnEncoded accepted a mismatched dimension")
	}
	if sv.Generation() != 0 {
		t.Fatalf("rejected learns advanced the generation to %d", sv.Generation())
	}
}

func TestServingFromClassifierSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cls := MustNew(servingConfig())
	samples := syntheticSamples(cls.Config(), 4, 16, rng)
	for _, s := range samples {
		cls.Train(s.Label, s.Window)
	}
	sv := cls.Serving(2)
	if sv.Generation() != 0 {
		t.Fatalf("snapshot generation %d, want 0", sv.Generation())
	}
	if sv.Classes() != cls.AM().Classes() {
		t.Fatalf("snapshot classes %d, want %d", sv.Classes(), cls.AM().Classes())
	}
	// Serving and classifier agree on every training window.
	for _, s := range samples {
		wantLabel, wantDist := cls.Predict(s.Window)
		label, dist := sv.Predict(s.Window)
		if label != wantLabel || dist != wantDist {
			t.Fatalf("serving (%q,%d) disagrees with classifier (%q,%d)", label, dist, wantLabel, wantDist)
		}
	}
	// Learning on the serving side must not move the classifier.
	before, _ := cls.Predict(samples[0].Window)
	for i := 0; i < 8; i++ {
		if err := sv.Learn("Z", samples[i%len(samples)].Window); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := cls.Predict(samples[0].Window)
	if before != after {
		t.Fatal("serving Learn leaked into the source classifier")
	}
	if sv.Classes() != cls.AM().Classes()+1 {
		t.Fatalf("serving classes %d after new-class learns", sv.Classes())
	}
}

func TestServingFixedPrototypeRejectsLearn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := servingConfig()
	cls := MustNew(cfg)
	cls.AM().SetPrototype("fixed", hv.NewRandom(cfg.D, rng))
	sv := cls.Serving(2)
	w := syntheticSamples(cfg, 1, 1, rng)[0].Window
	if err := sv.Learn("fixed", w); err == nil {
		t.Fatal("Learn on a fixed-prototype class did not error")
	}
	// Retrain replaces the fixed prototype with a learnable class.
	if err := sv.Retrain(nil, []Sample{{Label: "fixed", Window: w}}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Learn("fixed", w); err != nil {
		t.Fatalf("Learn after Retrain: %v", err)
	}
}

// TestServingLearnEqualsRetrain is the property test: learning a
// sample multiset one at a time publishes exactly the prototypes a
// batch Retrain over the same multiset publishes, for serial and
// pooled retrains and across shard counts.
func TestServingLearnEqualsRetrain(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	f := func(kRaw, nRaw, sRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := servingConfig()
		k := int(kRaw)%5 + 1
		n := int(nRaw)%24 + 1
		shards := []int{1, 2, 8}[int(sRaw)%3]
		samples := syntheticSamples(cfg, k, n, rng)

		online, err := NewServing(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if err := online.Learn(s.Label, s.Window); err != nil {
				t.Fatal(err)
			}
		}
		for _, retrainPool := range []*parallel.Pool{nil, pool} {
			batch, err := NewServing(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.Retrain(retrainPool, samples); err != nil {
				t.Fatal(err)
			}
			if batch.Generation() != 1 {
				return false
			}
			a, b := online.AM(), batch.AM()
			if a.Classes() != b.Classes() {
				return false
			}
			for i := 0; i < a.Classes(); i++ {
				if a.Label(i) != b.Label(i) || !hv.Equal(a.Prototype(i), b.Prototype(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestServingPredictShardedMatchesSerial drives the full serving
// predict path (encode + sharded search) against the serial one.
func TestServingPredictShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, shards := range []int{1, 2, 8} {
		sv, err := NewServing(servingConfig(), shards)
		if err != nil {
			t.Fatal(err)
		}
		train := syntheticSamples(sv.Config(), 5, 25, rng)
		if err := sv.Retrain(nil, train); err != nil {
			t.Fatal(err)
		}
		ses := sv.NewSession()
		for _, s := range syntheticSamples(sv.Config(), 5, 20, rng) {
			wantLabel, wantDist := ses.Predict(s.Window)
			label, dist := ses.PredictCtx(context.Background(), pool, s.Window)
			if label != wantLabel || dist != wantDist {
				t.Fatalf("shards=%d: sharded (%q,%d) != serial (%q,%d)", shards, label, dist, wantLabel, wantDist)
			}
		}
	}
}

func TestServingPredictBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pool := parallel.NewPool(4)
	defer pool.Close()
	sv, err := NewServing(servingConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Retrain(pool, syntheticSamples(sv.Config(), 6, 30, rng)); err != nil {
		t.Fatal(err)
	}
	test := syntheticSamples(sv.Config(), 6, 15, rng)
	windows := make([][][]float64, len(test))
	for i := range test {
		windows[i] = test[i].Window
	}
	ses := sv.NewSession()
	got := ses.PredictBatch(pool, windows, nil)
	if len(got) != len(windows) {
		t.Fatalf("%d predictions for %d windows", len(got), len(windows))
	}
	for i, w := range windows {
		label, dist := sv.Predict(w)
		if got[i].Label != label || got[i].Distance != dist {
			t.Fatalf("window %d: batch (%q,%d) != predict (%q,%d)", i, got[i].Label, got[i].Distance, label, dist)
		}
	}
	// Output reuse: same backing array, no reallocation.
	again := ses.PredictBatch(pool, windows, got)
	if &again[0] != &got[0] {
		t.Fatal("PredictBatch reallocated a sufficient output buffer")
	}
}

// TestServingPredictAllocationFree pins the acceptance criterion:
// steady-state sharded Predict through a Session allocates nothing,
// serial and pooled, with metrics enabled and disabled.
func TestServingPredictAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := parallel.NewPool(2)
	defer pool.Close()
	sv, err := NewServing(servingConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Retrain(nil, syntheticSamples(sv.Config(), 5, 20, rng)); err != nil {
		t.Fatal(err)
	}
	w := syntheticSamples(sv.Config(), 5, 1, rng)[0].Window
	windows := [][][]float64{w, w, w}
	ses := sv.NewSession()
	out := make([]Prediction, len(windows))
	// Warm up scratch growth.
	ses.Predict(w)
	ses.PredictCtx(context.Background(), pool, w)
	out = ses.PredictBatch(pool, windows, out)

	check := func(name string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times per run, want 0", name, allocs)
		}
	}
	check("Session.Predict", func() { ses.Predict(w) })
	check("Session.PredictCtx pooled", func() { ses.PredictCtx(context.Background(), pool, w) })
	check("Session.PredictBatch", func() { out = ses.PredictBatch(pool, windows, out) })

	// The sinks must not reintroduce allocations on the hot path.
	SetMetrics(&obs.InferenceMetrics{})
	SetServingMetrics(&obs.ServingMetrics{})
	t.Cleanup(func() {
		SetMetrics(nil)
		SetServingMetrics(nil)
	})
	check("Session.Predict (metrics)", func() { ses.Predict(w) })
	check("Session.PredictCtx pooled (metrics)", func() { ses.PredictCtx(context.Background(), pool, w) })
}

// servingFixture trains a classifier with enough classes to shard and
// snapshots it into a Serving.
func servingFixture(t *testing.T, shards int) (*Serving, [][]float64) {
	t.Helper()
	cfg := Config{D: 512, Channels: 4, Levels: 10, MinLevel: 0, MaxLevel: 9, NGram: 1, Window: 1, Seed: 21}
	c := MustNew(cfg)
	probe := [][]float64{{1, 2, 1, 2}}
	for cls := 0; cls < 8; cls++ {
		w := [][]float64{{float64(cls), float64(9 - cls), float64(cls), float64(9 - cls)}}
		for i := 0; i < 3; i++ {
			c.Train(fmt.Sprintf("g%d", cls), w)
		}
	}
	return c.Serving(shards), probe
}

// TestSerialShardLoop pins the nil-pool path of a sharded AM: the
// shards run one by one on the caller, bit-identical to the flat scan
// for every shard count, through Session.Predict and the pooled
// Serving.PredictCtx alike.
func TestSerialShardLoop(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		sv, probe := servingFixture(t, shards)
		ses := sv.NewSession()
		ses.ctx.encodeTo(ses.ctx.query, probe, sv.cfg.NGram)
		wantIdx, wantDist := sv.AM().NearestInto(nil, ses.ctx.query, nil)
		wantLabel := sv.AM().Label(wantIdx)
		label, dist := ses.Predict(probe)
		if label != wantLabel || dist != wantDist {
			t.Fatalf("%d shards: serial loop (%s,%d), flat scan (%s,%d)", shards, label, dist, wantLabel, wantDist)
		}
		label, dist, _ = sv.PredictCtx(context.Background(), probe)
		if label != wantLabel || dist != wantDist {
			t.Fatalf("%d shards: PredictCtx (%s,%d), flat scan (%s,%d)", shards, label, dist, wantLabel, wantDist)
		}
	}
}

// TestServingPredictCtx pins the pooled-session predict the HTTP edge
// runs: it reports the generation it scanned and recycles its session,
// and a panic inside the predict leaves that session out of the pool.
func TestServingPredictCtx(t *testing.T) {
	sv, probe := servingFixture(t, 4)
	wantLabel, wantDist := sv.Predict(probe)
	label, dist, gen := sv.PredictCtx(context.Background(), probe)
	if label != wantLabel || dist != wantDist || gen != sv.Generation() {
		t.Fatalf("PredictCtx (%s,%d,gen %d), want (%s,%d,gen %d)",
			label, dist, gen, wantLabel, wantDist, sv.Generation())
	}

	// Drain the pool, then panic mid-predict: the session that panicked
	// must not come back out of the pool.
	ses := sv.session()
	func() {
		defer func() { recover() }()
		sv.sessions.Put(ses)
		sv.PredictCtx(context.Background(), [][]float64{{1}}) // short rows panic in encode
	}()
	if got, ok := sv.sessions.Get().(*Session); ok && got == ses {
		t.Fatal("the session a panic escaped from went back into the pool")
	}
}

// TestPredictCtxReportsScannedGeneration pins the generation
// Serving.PredictCtx reports to the AM its own atomic load scanned,
// under a learner publishing concurrently. The learner records the
// published AM under each generation id; every (label, distance) a
// reader gets must equal a flat scan of the AM recorded for the
// generation it was told. Reporting an id read before or after the
// predict's own load pairs the answer with a neighbouring generation,
// whose prototypes differ. Meant for the race lane.
func TestPredictCtxReportsScannedGeneration(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(70 + shards)))
			cfg := servingConfig()
			sv, err := NewServing(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if err := sv.Retrain(nil, syntheticSamples(cfg, 5, 20, rng)); err != nil {
				t.Fatal(err)
			}
			learns := 60
			if testing.Short() {
				learns = 15
			}
			// ams[g] is the AM published as generation g; the learner
			// is the only publisher, so Generation() right after its
			// Learn names the AM that Learn published.
			ams := make([]atomic.Pointer[ShardedAM], sv.Generation()+uint64(learns)+1)
			ams[sv.Generation()].Store(sv.AM())

			windows := syntheticSamples(cfg, 5, 4, rng)
			var stop atomic.Bool
			var predicts atomic.Int64
			var wg sync.WaitGroup
			defer func() {
				stop.Store(true)
				wg.Wait()
			}()
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					ref := sv.NewSession()
					for i := 0; !stop.Load(); i++ {
						w := windows[(r+i)%len(windows)].Window
						label, dist, gen := sv.PredictCtx(context.Background(), w)
						predicts.Add(1)
						if gen >= uint64(len(ams)) {
							t.Errorf("predict reported generation %d, never published", gen)
							return
						}
						am := ams[gen].Load()
						for am == nil { // published, not yet recorded
							runtime.Gosched()
							am = ams[gen].Load()
						}
						ref.ctx.encodeTo(ref.ctx.query, w, cfg.NGram)
						idx, want := am.NearestInto(nil, ref.ctx.query, nil)
						if label != am.Label(idx) || dist != want {
							t.Errorf("generation %d: predict (%s,%d), flat scan of that generation (%s,%d)",
								gen, label, dist, am.Label(idx), want)
							return
						}
					}
				}(r)
			}
			for _, s := range syntheticSamples(cfg, 5, learns, rng) {
				if err := sv.Learn(s.Label, s.Window); err != nil {
					t.Fatal(err)
				}
				ams[sv.Generation()].Store(sv.AM())
				// Let the readers scan each generation a few times
				// before the next publication.
				for next := predicts.Load() + 8; predicts.Load() < next && !t.Failed(); {
					runtime.Gosched()
				}
			}
		})
	}
}
