package hdc

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pulphd/internal/parallel"
)

// TestServingConcurrentPredictLearn hammers the copy-on-write model
// with concurrent readers and writers. It is the test the -race CI
// lane exists for: several goroutines Predict through their own
// Sessions (serial and pool-sharded), more go through the pooled
// Serving.Predict convenience path, while a learner publishes a new
// generation per sample and a retrainer periodically rebuilds the
// whole model. Readers assert they only ever observe fully-built
// generations; the learner asserts ids stay strictly monotonic.
func TestServingConcurrentPredictLearn(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(map[int]string{1: "shards=1", 2: "shards=2", 8: "shards=8"}[shards], func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + shards)))
			cfg := servingConfig()
			sv, err := NewServing(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			train := syntheticSamples(cfg, 6, 36, rng)
			if err := sv.Retrain(nil, train); err != nil {
				t.Fatal(err)
			}
			valid := make(map[string]bool)
			for _, s := range train {
				valid[s.Label] = true
			}
			valid["X"] = true // the label the online learner adds

			iters := 150
			if testing.Short() {
				iters = 30
			}
			var stop atomic.Bool
			var wg sync.WaitGroup

			// Serial-session readers.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					ses := sv.NewSession()
					w := syntheticSamples(cfg, 6, 1, r)[0].Window
					for !stop.Load() {
						label, dist := ses.Predict(w)
						if !valid[label] || dist < 0 || dist > cfg.D {
							t.Errorf("reader observed (%q,%d)", label, dist)
							return
						}
					}
				}(int64(g))
			}
			// A pool-sharded reader with its own pool (pools serve one
			// collective at a time, so each sharded reader brings one).
			wg.Add(1)
			go func() {
				defer wg.Done()
				pool := parallel.NewPool(2)
				defer pool.Close()
				r := rand.New(rand.NewSource(99))
				ses := sv.NewSession()
				w := syntheticSamples(cfg, 6, 1, r)[0].Window
				for !stop.Load() {
					label, dist := ses.PredictCtx(context.Background(), pool, w)
					if !valid[label] || dist < 0 || dist > cfg.D {
						t.Errorf("sharded reader observed (%q,%d)", label, dist)
						return
					}
				}
			}()
			// Readers through the sync.Pool convenience path.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					w := syntheticSamples(cfg, 6, 1, r)[0].Window
					for !stop.Load() {
						if label, _ := sv.Predict(w); !valid[label] {
							t.Errorf("pooled reader observed label %q", label)
							return
						}
					}
				}(int64(10 + g))
			}
			// Generation watcher: ids only move forward.
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last uint64
				for !stop.Load() {
					g := sv.Generation()
					if g < last {
						t.Errorf("generation went backwards: %d after %d", g, last)
						return
					}
					last = g
				}
			}()

			// Writers: one online learner, one periodic retrainer. Learn
			// and Retrain serialize on sv.mu, so ids from this goroutine
			// pair advance by one per publication.
			learnSamples := syntheticSamples(cfg, 6, iters, rng)
			before := sv.Generation()
			for i, s := range learnSamples {
				label := s.Label
				if i%5 == 0 {
					label = "X"
				}
				if err := sv.Learn(label, s.Window); err != nil {
					t.Fatal(err)
				}
				if i%40 == 39 {
					if err := sv.Retrain(nil, append(train, Sample{Label: "X", Window: s.Window})); err != nil {
						t.Fatal(err)
					}
				}
			}
			stop.Store(true)
			wg.Wait()

			published := sv.Generation() - before
			want := uint64(iters + iters/40)
			if published != want {
				t.Errorf("published %d generations, want %d", published, want)
			}
		})
	}
}
