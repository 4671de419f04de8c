package hdc

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pulphd/internal/obs"
	"pulphd/internal/parallel"
)

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

// TestDegradedFallbackOnShardPanic pins the serving hardening: a shard
// worker panicking mid-search must not kill the process or poison the
// pool — the predict falls back to the flat scan, returns the same
// answer, and counts a degraded scan.
func TestDegradedFallbackOnShardPanic(t *testing.T) {
	sv, probe := servingFixture(t, 4)
	pool := parallel.NewPool(4)
	defer pool.Close()
	ses := sv.NewSession()

	wantLabel, wantDist := ses.Predict(probe) // serial reference

	m := &obs.ServingMetrics{}
	SetServingMetrics(m)
	defer SetServingMetrics(nil)

	for _, failing := range []int{0, 2, 3} {
		fail := failing
		SetShardChaos(func(sh int) {
			if sh == fail {
				panic(fmt.Sprintf("chaos: shard %d down", sh))
			}
		})
		before := m.DegradedScans.Value()
		label, dist := ses.PredictSharded(pool, probe)
		if label != wantLabel || dist != wantDist {
			t.Fatalf("shard %d down: got (%s,%d), want (%s,%d)", fail, label, dist, wantLabel, wantDist)
		}
		if m.DegradedScans.Value() != before+1 {
			t.Fatalf("shard %d down: degraded counter %d, want %d", fail, m.DegradedScans.Value(), before+1)
		}
	}

	// Every shard down at once: still a correct degraded answer.
	SetShardChaos(func(int) { panic("chaos: total shard loss") })
	label, dist := ses.PredictSharded(pool, probe)
	if label != wantLabel || dist != wantDist {
		t.Fatalf("all shards down: got (%s,%d), want (%s,%d)", label, dist, wantLabel, wantDist)
	}

	// Hook removed: sharded path recovers fully, no further degrades.
	SetShardChaos(nil)
	before := m.DegradedScans.Value()
	label, dist = ses.PredictSharded(pool, probe)
	if label != wantLabel || dist != wantDist {
		t.Fatalf("after chaos removed: got (%s,%d), want (%s,%d)", label, dist, wantLabel, wantDist)
	}
	if m.DegradedScans.Value() != before {
		t.Fatalf("degraded counter moved without chaos: %d -> %d", before, m.DegradedScans.Value())
	}

	// The pool must still be healthy for ordinary collectives.
	sum := make([]int, pool.Workers()*4)
	pool.ForRange(len(sum), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum[i] = i
		}
	})
	for i, v := range sum {
		if v != i {
			t.Fatalf("pool collective wrong after chaos: sum[%d]=%d", i, v)
		}
	}
}

// TestDegradedFallbackStaged pins the same behavior on the staged
// (span-recording, metrics-on) predict path.
func TestDegradedFallbackStaged(t *testing.T) {
	sv, probe := servingFixture(t, 4)
	pool := parallel.NewPool(2)
	defer pool.Close()
	ses := sv.NewSession()
	wantLabel, wantDist := ses.Predict(probe)

	im := &obs.InferenceMetrics{}
	SetMetrics(im)
	defer SetMetrics(nil)
	sm := &obs.ServingMetrics{}
	SetServingMetrics(sm)
	defer SetServingMetrics(nil)

	SetShardChaos(func(sh int) {
		if sh == 1 {
			panic("chaos")
		}
	})
	defer SetShardChaos(nil)

	label, dist := ses.PredictCtx(context.Background(), pool, probe)
	if label != wantLabel || dist != wantDist {
		t.Fatalf("staged degraded: got (%s,%d), want (%s,%d)", label, dist, wantLabel, wantDist)
	}
	if sm.DegradedScans.Value() == 0 {
		t.Fatal("staged path did not count the degraded scan")
	}
}

// TestSerialShardLoop pins the nil-pool path of a sharded AM: the
// shards run one by one on the caller, bit-identical to the flat scan
// for every shard count, and still guarded by the chaos hook, the
// per-shard recover and the degraded fallback.
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
		if shards == 1 {
			continue
		}
		m := &obs.ServingMetrics{}
		SetServingMetrics(m)
		SetShardChaos(func(sh int) {
			if sh == shards-1 {
				panic("chaos")
			}
		})
		label, dist, _, degraded := sv.PredictCtx(context.Background(), probe)
		SetShardChaos(nil)
		SetServingMetrics(nil)
		if label != wantLabel || dist != wantDist || !degraded || m.DegradedScans.Value() != 1 {
			t.Fatalf("%d shards, last down: (%s,%d) degraded=%v scans=%d; want (%s,%d) degraded",
				shards, label, dist, degraded, m.DegradedScans.Value(), wantLabel, wantDist)
		}
	}
}

// TestServingPredictCtx pins the pooled-session predict the HTTP edge
// runs: it reports the generation it scanned and recycles its session,
// and a panic inside the predict leaves that session out of the pool.
func TestServingPredictCtx(t *testing.T) {
	sv, probe := servingFixture(t, 4)
	wantLabel, wantDist := sv.Predict(probe)
	label, dist, gen, degraded := sv.PredictCtx(context.Background(), probe)
	if label != wantLabel || dist != wantDist || gen != sv.Generation() || degraded {
		t.Fatalf("PredictCtx (%s,%d,gen %d,%v), want (%s,%d,gen %d,false)",
			label, dist, gen, degraded, wantLabel, wantDist, sv.Generation())
	}
	// A learn published mid-scan: the predict reports the generation
	// its own load saw, not the one current when it returns.
	before := sv.Generation()
	var once sync.Once
	SetShardChaos(func(int) {
		once.Do(func() {
			if err := sv.Learn("g9", [][]float64{{9, 9, 9, 9}}); err != nil {
				t.Error(err)
			}
		})
	})
	_, _, gen, _ = sv.PredictCtx(context.Background(), probe)
	SetShardChaos(nil)
	if gen != before || sv.Generation() != before+1 {
		t.Fatalf("reported generation %d, want the scanned %d (now %d)", gen, before, sv.Generation())
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
