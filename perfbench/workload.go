package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"pulphd/internal/emg"
	"pulphd/internal/experiments"
	"pulphd/internal/hdc"
)

// Workload shapes. The fleet's resident budget is a constant byte
// count, about eight stored EMG models of ≈39 KB, never derived from
// the model size at run time, so a change to the model footprint shows
// up as a change in fault-ins rather than being absorbed.
const (
	fleetTenants  = 32
	fleetZipfS    = 1.1
	fleetBudget   = 320000
	fleetSlice    = 48
	mixedRate     = 4000 // arrivals per second, well below predict-closed capacity
	mixedLearnPct = 10
	// seqLen is the generated request-sequence length; a run that
	// sends more wraps around and repeats it.
	seqLen = 1 << 17
)

// kind is a request's route.
type kind uint8

const (
	predict kind = iota
	learn
)

// request is one generated request: its route, the tenant it
// addresses (-1: the default model) and the index of its window in the
// campaign's test split (predicts) or training split (learns).
type request struct {
	kind   kind
	tenant int16
	window int32
}

// workload is one traffic mix and the server deployment it runs
// against.
type workload struct {
	name, why string
	// persistent starts the server with a fresh -state-dir; budget, when
	// non-zero, with -resident-budget.
	persistent bool
	budget     int64
	// rate > 0 drives an open loop at that many arrivals per second;
	// 0 drives nproc closed-loop clients.
	rate    float64
	tenants int
	seq     []request
}

var workloadNames = []string{"predict-closed", "mixed-open", "fleet-evict"}

// newWorkload builds the named workload's request sequence from seed.
// The campaign is fixed; the seed picks the order of test windows, the
// learns and their windows, and the tenant of every request.
func newWorkload(name string, seed int64, c *campaign) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "predict-closed":
		w.why = "nproc closed-loop /predict clients on an ephemeral registry: saturates handler, JSON decode, dispatcher and hdc predict with no disk and no registry misses"
	case "mixed-open":
		w.why = "open loop at 4000/s, 10% WAL-logged /learn with copy-on-write publish and auto-snapshots: reads beside writes at a fixed arrival rate"
		w.persistent = true
		w.rate = mixedRate
	case "fleet-evict":
		// Run by hand, not listed in BENCHMARK.json: every eviction
		// fsyncs, so on a shared disk its numbers spread beyond any
		// bound BENCHMARK.json may set (README.md).
		w.why = "nproc closed-loop /predict clients over 32 Zipf-popular tenants under a fixed 320000 B resident budget: registry eviction, fault-in and the snapshot codec"
		w.persistent = true
		w.budget = fleetBudget
		w.tenants = fleetTenants
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.seq = make([]request, seqLen)
	order := rand.New(rand.NewSource(seed)).Perm(len(c.test))
	mix := rand.New(rand.NewSource(seed ^ 0x5eed1ea7))
	tenants := zipfTenants(seed, len(w.seq))
	// Learns walk seeded permutations of the training split, so after
	// each full pass every window has been learned equally often
	// whatever the seed, and accuracy_pct does not move with the share
	// of each gesture a seed happens to draw.
	var learns []int
	for i := range w.seq {
		r := request{kind: predict, tenant: -1, window: int32(order[i%len(order)])}
		if w.name == "mixed-open" && mix.Intn(100) < mixedLearnPct {
			if len(learns) == 0 {
				learns = mix.Perm(len(c.train))
			}
			r = request{kind: learn, tenant: -1, window: int32(learns[0])}
			learns = learns[1:]
		}
		if w.tenants > 0 {
			r.tenant = int16(tenants[i])
		}
		w.seq[i] = r
	}
	return w, nil
}

// zipfTenants draws n tenant indices in [0, fleetTenants) from a
// Zipf(s = fleetZipfS) law seeded by seed; tenant 0 is the most
// popular.
func zipfTenants(seed int64, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed^0x7e4a47)), fleetZipfS, 1, fleetTenants-1)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// tenantName is tenant t's registry model name.
func tenantName(t int) string { return fmt.Sprintf("t%02d", t) }

// tenantSlice is the fixed training-split slice tenant t is seeded
// with: fleetSlice windows at stride 7 from offset 11·t, so every
// tenant sees every gesture and no two tenants learn the same set.
func tenantSlice(t, trainLen int) []int {
	out := make([]int, fleetSlice)
	for k := range out {
		out[k] = (11*t + 7*k) % trainLen
	}
	return out
}

// seeding is the learn sequence that seeds one model before
// measuring.
type seeding struct {
	tenant  int // -1: the default model
	windows []int
}

// seedPlan returns the models the workload seeds, in order: the
// default model with the whole training split, or every fleet tenant
// with its slice.
func (w *workload) seedPlan(c *campaign) []seeding {
	if w.tenants == 0 {
		all := make([]int, len(c.train))
		for i := range all {
			all[i] = i
		}
		return []seeding{{-1, all}}
	}
	plan := make([]seeding, w.tenants)
	for t := range plan {
		plan[t] = seeding{t, tenantSlice(t, len(c.train))}
	}
	return plan
}

// campaign is the seeded EMG data every workload draws from: the
// first subject's 345-window training split and its test session,
// with each window's request body pre-encoded so the generator spends
// no CPU on JSON encoding.
type campaign struct {
	train, test             []experiments.LabeledWindow
	trainBodies, testBodies [][]byte
	labels                  map[string]bool
}

func newCampaign() (*campaign, error) {
	proto := emg.DefaultProtocol()
	proto.Subjects = 1
	p := experiments.Prepare(proto, hdc.EMGConfig().Window)
	c := &campaign{train: p.Subjects[0].Train, test: p.Subjects[0].Test, labels: map[string]bool{}}
	for _, w := range c.train {
		b, err := json.Marshal(struct {
			Label  string      `json:"label"`
			Window [][]float64 `json:"window"`
		}{w.Label, w.Window})
		if err != nil {
			return nil, err
		}
		c.trainBodies = append(c.trainBodies, b)
		c.labels[w.Label] = true
	}
	for _, w := range c.test {
		b, err := json.Marshal(struct {
			Window [][]float64 `json:"window"`
		}{w.Window})
		if err != nil {
			return nil, err
		}
		c.testBodies = append(c.testBodies, b)
	}
	return c, nil
}

// answer is a reference prediction.
type answer struct {
	label    string
	distance int
}

// references trains one in-process hdc.Serving per model on exactly
// the learn sequence the server receives during set-up and returns,
// for every predict in the sequence, the answer the server must give.
// It returns nil for workloads whose models keep learning while they
// are measured (their answers are checked against generations
// instead).
func (w *workload) references(c *campaign, cfg hdc.Config) ([]answer, error) {
	if w.name == "mixed-open" {
		return nil, nil
	}
	models := map[int]*hdc.Serving{}
	for _, sd := range w.seedPlan(c) {
		sv, err := hdc.NewServing(cfg, 1)
		if err != nil {
			return nil, err
		}
		for _, j := range sd.windows {
			if err := sv.Learn(c.train[j].Label, c.train[j].Window); err != nil {
				return nil, err
			}
		}
		models[sd.tenant] = sv
	}
	want := make([]answer, len(w.seq))
	const parts = 4
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(w.seq); i += parts {
				r := w.seq[i]
				label, d := models[int(r.tenant)].Predict(c.test[r.window].Window)
				want[i] = answer{label, d}
			}
		}(p)
	}
	wg.Wait()
	return want, nil
}
