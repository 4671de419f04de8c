package hdc

import (
	"context"
	"math/rand"
	"testing"

	"pulphd/internal/hv"
	"pulphd/internal/parallel"
)

// benchServing builds a 256-class serving instance with random
// prototypes — the many-class regime class sharding exists for (the
// paper's EMG task has 5 classes; per-class search parallelism only
// pays once the class count outgrows one core's scan).
func benchServing(b *testing.B, classes, shards int) (*Serving, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	cfg := EMGConfig()
	sv, err := NewServing(cfg, shards)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < classes; i++ {
		label := string(rune('A'+i/26%26)) + string(rune('a'+i%26))
		if err := sv.LearnEncoded(label, hv.NewRandom(cfg.D, rng)); err != nil {
			b.Fatal(err)
		}
	}
	window := syntheticSamples(cfg, 4, 1, rng)[0].Window
	return sv, window
}

// BenchmarkServingPredictUnsharded is the baseline: encode plus a flat
// scan over all 256 prototypes on one core.
func BenchmarkServingPredictUnsharded(b *testing.B) {
	sv, window := benchServing(b, 256, 1)
	ses := sv.NewSession()
	ses.Predict(window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses.Predict(window)
	}
}

// BenchmarkServingPredictSharded fans the 256-class search over 8
// shards on an 8-worker pool.
func BenchmarkServingPredictSharded(b *testing.B) {
	sv, window := benchServing(b, 256, 8)
	pool := parallel.NewPool(8)
	defer pool.Close()
	ses := sv.NewSession()
	ctx := context.Background()
	ses.PredictCtx(ctx, pool, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses.PredictCtx(ctx, pool, window)
	}
}

// BenchmarkServingSearchUnsharded isolates the AM search (no encode):
// the component sharding actually parallelizes.
func BenchmarkServingSearchUnsharded(b *testing.B) {
	sv, _ := benchServing(b, 256, 1)
	am := sv.AM()
	query := hv.NewRandom(sv.Config().D, rand.New(rand.NewSource(2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		am.Nearest(query, nil)
	}
}

// BenchmarkServingSearchSharded is the isolated search across 8 shards
// on an 8-worker pool.
func BenchmarkServingSearchSharded(b *testing.B) {
	sv, _ := benchServing(b, 256, 8)
	am := sv.AM()
	pool := parallel.NewPool(8)
	defer pool.Close()
	query := hv.NewRandom(sv.Config().D, rand.New(rand.NewSource(2)))
	scratch := make([]ShardBest, am.Shards())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		am.NearestInto(scratch, query, pool)
	}
}

// BenchmarkServingLearn measures one online-learning publication:
// encode, accumulate, rebinarize one class, copy-on-write publish.
func BenchmarkServingLearn(b *testing.B) {
	sv, window := benchServing(b, 64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sv.Learn("Aa", window); err != nil {
			b.Fatal(err)
		}
	}
}
