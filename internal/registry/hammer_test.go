package registry

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pulphd/internal/hdc"
)

// TestRegistryIsolationHammer hammers N tenant models with concurrent
// predicts, learns, snapshots, evictions and fault-ins, and checks the
// isolation invariants the multi-tenant contract promises:
//
//   - a tenant's predictions only ever name labels that tenant taught
//     (no cross-tenant leakage, even mid-evict or mid-fault-in);
//   - a tenant's generation never moves backwards;
//   - concurrent admin churn (snapshot, budget enforcement) never
//     surfaces an error or a torn model.
//
// Run it under -race: the two-level lock order and the atomic
// Serving pointer are the things it exists to catch regressions in.
func TestRegistryIsolationHammer(t *testing.T) {
	const tenants = 4
	const opsPerWorker = 60
	cfg := testConfig(hdc.BackendStored)
	r, err := Open(Config{Dir: t.TempDir(), Shards: 2, ResidentBudget: 3 * 1 << 20, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Each tenant has a disjoint label alphabet: tenant i teaches only
	// "t<i>-..." labels, so any foreign label in a prediction is
	// cross-tenant leakage.
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
		if _, err := r.Create(names[i], cfg); err != nil {
			t.Fatal(err)
		}
		// Seed two classes so predicts have something to answer with.
		rng := rand.New(rand.NewSource(int64(i)))
		for k := 0; k < 2; k++ {
			label := fmt.Sprintf("t%d-g%d", i, k)
			if err := r.Learn(names[i], label, randomWindow(cfg, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var lastGen [tenants]atomic.Uint64
	var failures atomic.Int32
	fail := func(format string, args ...any) {
		if failures.Add(1) < 10 {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup
	// Two workers per tenant mixing predicts and learns, plus one admin
	// worker cycling snapshot/evict across all tenants.
	for i := 0; i < tenants; i++ {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(tenant, worker int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(tenant*100 + worker)))
				name := names[tenant]
				prefix := fmt.Sprintf("t%d-", tenant)
				for n := 0; n < opsPerWorker; n++ {
					switch rng.Intn(3) {
					case 0:
						label := fmt.Sprintf("t%d-g%d", tenant, rng.Intn(3))
						if err := r.Learn(name, label, randomWindow(cfg, rng)); err != nil {
							fail("tenant %d learn: %v", tenant, err)
							return
						}
					case 1:
						sv, err := r.Serving(name)
						if err != nil {
							fail("tenant %d serving: %v", tenant, err)
							return
						}
						label, _ := sv.Predict(randomWindow(cfg, rng))
						if !strings.HasPrefix(label, prefix) {
							fail("tenant %d predicted foreign label %q", tenant, label)
							return
						}
						gen := sv.Generation()
						for {
							prev := lastGen[tenant].Load()
							if gen <= prev {
								break
							}
							if lastGen[tenant].CompareAndSwap(prev, gen) {
								break
							}
						}
					default:
						// Read the floor before the info: every generation
						// observed so far must be ≤ what the info reports.
						prev := lastGen[tenant].Load()
						info, err := r.ModelInfo(name)
						if err != nil {
							fail("tenant %d info: %v", tenant, err)
							return
						}
						if info.Resident && info.Generation < prev {
							fail("tenant %d generation went backwards: %d after %d", tenant, info.Generation, prev)
							return
						}
					}
				}
			}(i, w)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for n := 0; n < opsPerWorker*tenants; n++ {
			name := names[rng.Intn(tenants)]
			switch rng.Intn(3) {
			case 0:
				if err := r.Snapshot(name); err != nil {
					fail("admin snapshot %s: %v", name, err)
					return
				}
			case 1:
				r.EnforceBudget()
			default:
				r.List()
			}
		}
	}()
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d isolation violations", n)
	}

	// After the storm every tenant still recovers from disk to a model
	// holding only its own labels.
	for i, name := range names {
		sv, err := r.Serving(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range sv.Labels() {
			if !strings.HasPrefix(label, fmt.Sprintf("t%d-", i)) {
				t.Fatalf("tenant %d ended up with foreign class %q", i, label)
			}
		}
	}
}
