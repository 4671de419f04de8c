package hdc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pulphd/internal/hv"
	"pulphd/internal/obs"
	"pulphd/internal/parallel"
)

// This file is the online-learning serving layer: it makes the paper's
// "the AM matrix can be continuously updated for on-line learning"
// (§3) safe under concurrent query traffic. The model is published as
// immutable generations behind an atomic pointer — Learn and Retrain
// accumulate into bundlers and rebinarize (the paper's one-shot
// training), then swap in a fresh ShardedAM without ever mutating the
// one in-flight Predicts are reading.
//
// Invariants (tested by the race/property layers):
//   - Generation ids increase by exactly one per publication.
//   - A reader never observes a half-built AM: every generation's
//     labels and prototypes are fully constructed before the pointer
//     swap, and never written afterwards.
//   - Sharded search is bit-identical to the flat scan for any shard
//     count and pool size.
//   - Learn applied sample-by-sample and Retrain over the same sample
//     multiset publish identical prototypes (serving rebinarization
//     breaks majority ties deterministically to 0, like the
//     accelerator's rule, so no rng stream is involved).

// Sample is one labelled training window, the unit Learn and Retrain
// consume.
type Sample struct {
	Label  string
	Window [][]float64
}

// generation is one immutable published model snapshot.
type generation struct {
	id uint64
	am *ShardedAM
}

// Serving is a hot-swappable HD classifier: any number of goroutines
// may Predict (each through its own Session, or the pooled
// convenience methods) while Learn/Retrain publish new model
// generations. Predictions are served from the generation current at
// their start; a Learn becomes visible atomically to every subsequent
// load.
type Serving struct {
	cfg    Config
	im     *ItemMemory
	cim    *ContinuousItemMemory
	shards int

	gen atomic.Pointer[generation]

	// mu serializes learners; readers never take it.
	mu     sync.Mutex
	labels []string
	accum  []*hv.Bundler // nil entry: fixed prototype, not learnable

	sessions sync.Pool
}

// NewServing returns an empty learnable serving classifier for cfg,
// its associative memory split into at most `shards` shards (clamped
// to the class count as classes appear). Item memories are generated
// deterministically from cfg.Seed, exactly as New.
func NewServing(cfg Config, shards int) (*Serving, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("hdc: NewServing: shard count %d must be ≥1", shards)
	}
	sv := &Serving{
		cfg:    cfg,
		im:     newConfigIM(cfg),
		cim:    newConfigCIM(cfg),
		shards: shards,
	}
	sv.gen.Store(&generation{id: 0, am: NewShardedAM(cfg.D, nil, nil, shards)})
	return sv, nil
}

// Serving snapshots a trained classifier into a serving instance:
// generation 0 holds copies of the current prototypes, and the class
// accumulators are cloned so online learning continues from the
// trained counts. The serving instance shares the classifier's
// read-only item memories but is otherwise detached — training either
// side afterwards does not affect the other. Classes with fixed
// prototypes (SetPrototype, Truncated) serve but reject Learn until a
// Retrain rebuilds them.
func (c *Classifier) Serving(shards int) *Serving {
	if shards < 1 {
		panic(fmt.Sprintf("hdc: Classifier.Serving: shard count %d must be ≥1", shards))
	}
	sv := &Serving{
		cfg:    c.cfg,
		im:     c.im,
		cim:    c.cim,
		shards: shards,
	}
	c.am.refresh()
	sv.labels = append([]string(nil), c.am.labels...)
	protos := make([]hv.Vector, len(c.am.prototypes))
	for i, p := range c.am.prototypes {
		protos[i] = p.Clone()
	}
	sv.accum = make([]*hv.Bundler, len(c.am.accum))
	for i, b := range c.am.accum {
		if b != nil {
			sv.accum[i] = b.Clone()
		}
	}
	labels := append([]string(nil), sv.labels...)
	sv.gen.Store(&generation{id: 0, am: NewShardedAM(c.cfg.D, labels, protos, shards)})
	return sv
}

// Config returns the classifier configuration.
func (sv *Serving) Config() Config { return sv.cfg }

// Generation returns the id of the currently published model
// snapshot. Ids start at 0 and increase by one per Learn/Retrain.
func (sv *Serving) Generation() uint64 { return sv.gen.Load().id }

// Classes returns the class count of the published generation.
func (sv *Serving) Classes() int { return sv.gen.Load().am.Classes() }

// Shards returns the configured shard count (the published AM may use
// fewer while it holds fewer classes).
func (sv *Serving) Shards() int { return sv.shards }

// Labels returns the class labels of the published generation.
func (sv *Serving) Labels() []string {
	return append([]string(nil), sv.gen.Load().am.labels...)
}

// AM returns the published generation's associative memory. It is
// immutable; any number of goroutines may search it.
func (sv *Serving) AM() *ShardedAM { return sv.gen.Load().am }

// ResidentBytes returns the resident model footprint of the published
// generation in bytes: item memory + continuous item memory + AM
// prototypes. With the rematerializing backend the IM+CIM term is
// expansion keys rather than matrices — the footprint win the
// per-model pulphd_model_resident_bytes gauge makes visible.
func (sv *Serving) ResidentBytes() int {
	return sv.im.SizeBytes() + sv.cim.SizeBytes() + sv.gen.Load().am.SizeBytes()
}

// ValidateWindow reports whether window has the shape the encoders
// expect (at least NGram samples of Channels values each). Remote
// serving edges validate with it before Predict, which panics on
// malformed shapes like the rest of the in-process API.
func (sv *Serving) ValidateWindow(window [][]float64) error {
	return sv.validateWindow(window)
}

// validateWindow checks the shape the encoders would otherwise panic
// on — the serving edge reports errors instead.
func (sv *Serving) validateWindow(window [][]float64) error {
	if len(window) < sv.cfg.NGram {
		return fmt.Errorf("hdc: window of %d samples shorter than N-gram %d", len(window), sv.cfg.NGram)
	}
	for t, s := range window {
		if len(s) != sv.cfg.Channels {
			return fmt.Errorf("hdc: window sample %d has %d channels, want %d", t, len(s), sv.cfg.Channels)
		}
	}
	return nil
}

// Learn folds one label-corrected window into the model and publishes
// a new generation: accumulate into the class bundler, rebinarize that
// class (majority threshold, ties deterministically 0), copy-on-write
// the prototype table, swap the pointer. In-flight Predicts keep
// reading the old generation; no reader is ever blocked.
func (sv *Serving) Learn(label string, window [][]float64) error {
	if err := sv.validateWindow(window); err != nil {
		return err
	}
	ses := sv.session()
	ses.ctx.encodeTo(ses.ctx.query, window, sv.cfg.NGram)
	err := sv.LearnEncoded(label, ses.ctx.query)
	sv.sessions.Put(ses)
	return err
}

// LearnCtx is Learn with request-scoped observability: when ctx
// carries an obs.Spans recorder the encode and the generation
// publication record as spans under the recorder's staged parent.
func (sv *Serving) LearnCtx(ctx context.Context, label string, window [][]float64) error {
	if err := sv.validateWindow(window); err != nil {
		return err
	}
	rec := obs.SpansFrom(ctx)
	ses := sv.session()
	enc := rec.Start("learn.encode", rec.Parent())
	ses.ctx.encodeTo(ses.ctx.query, window, sv.cfg.NGram)
	rec.End(enc)
	err := sv.learnEncoded(rec, label, ses.ctx.query)
	sv.sessions.Put(ses)
	return err
}

// LearnEncodedCtx is LearnEncoded with request-scoped observability.
func (sv *Serving) LearnEncodedCtx(ctx context.Context, label string, encoded hv.Vector) error {
	return sv.learnEncoded(obs.SpansFrom(ctx), label, encoded)
}

// LearnEncoded is Learn for a pre-encoded query hypervector.
func (sv *Serving) LearnEncoded(label string, encoded hv.Vector) error {
	return sv.learnEncoded(nil, label, encoded)
}

// learnEncoded accumulates the encoded sample and publishes a new
// generation, recording a "learn.publish" span around the swap when a
// recorder rides along.
func (sv *Serving) learnEncoded(rec *obs.Spans, label string, encoded hv.Vector) error {
	if encoded.Dim() != sv.cfg.D {
		return fmt.Errorf("hdc: LearnEncoded: dimension mismatch %d != %d", encoded.Dim(), sv.cfg.D)
	}
	if label == "" {
		return fmt.Errorf("hdc: LearnEncoded: empty label")
	}
	m := servingMetrics()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	pub := rec.Start("learn.publish", rec.Parent())
	defer rec.End(pub)
	sv.mu.Lock()
	i := -1
	for j, l := range sv.labels {
		if l == label {
			i = j
			break
		}
	}
	if i < 0 {
		i = len(sv.labels)
		sv.labels = append(sv.labels, label)
		sv.accum = append(sv.accum, hv.NewBundler(sv.cfg.D))
	}
	if sv.accum[i] == nil {
		sv.mu.Unlock()
		return fmt.Errorf("hdc: Learn: class %q has a fixed prototype; Retrain to make it learnable", label)
	}
	sv.accum[i].Add(encoded)
	proto := sv.accum[i].Vector(nil)

	old := sv.gen.Load()
	labels := append([]string(nil), sv.labels...)
	protos := make([]hv.Vector, len(sv.labels))
	copy(protos, old.am.protos)
	protos[i] = proto
	next := &generation{id: old.id + 1, am: NewShardedAM(sv.cfg.D, labels, protos, sv.shards)}
	sv.gen.Store(next)
	sv.mu.Unlock()
	rec.Annotate(pub, "generation", int64(next.id))
	rec.Annotate(pub, "classes", int64(next.am.Classes()))
	if m != nil {
		m.RecordPublish(time.Since(start))
	}
	return nil
}

// Retrain rebuilds the whole model from the sample multiset — the
// paper's one-shot batch training — and publishes it as a single new
// generation. Class order is the order of first appearance in
// samples. A non-nil pool parallelizes the encode+accumulate phase
// across its workers, each accumulating into private bundlers that
// are merged exactly (hv.Bundler.Merge) before rebinarization, so the
// published prototypes are independent of worker count and
// scheduling. Retrain replaces any fixed prototypes with learnable
// accumulators.
func (sv *Serving) Retrain(pool *parallel.Pool, samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("hdc: Retrain: no samples")
	}
	classOf := make(map[string]int)
	var labels []string
	for i := range samples {
		if samples[i].Label == "" {
			return fmt.Errorf("hdc: Retrain: sample %d has an empty label", i)
		}
		if err := sv.validateWindow(samples[i].Window); err != nil {
			return fmt.Errorf("hdc: Retrain: sample %d: %w", i, err)
		}
		if _, ok := classOf[samples[i].Label]; !ok {
			classOf[samples[i].Label] = len(labels)
			labels = append(labels, samples[i].Label)
		}
	}
	k := len(labels)

	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}
	acc := make([][]*hv.Bundler, workers)
	for w := range acc {
		acc[w] = make([]*hv.Bundler, k)
	}
	accumulate := func(lo, hi, worker int) {
		ses := sv.NewSession()
		mine := acc[worker]
		for i := lo; i < hi; i++ {
			ses.ctx.encodeTo(ses.ctx.query, samples[i].Window, sv.cfg.NGram)
			c := classOf[samples[i].Label]
			if mine[c] == nil {
				mine[c] = hv.NewBundler(sv.cfg.D)
			}
			mine[c].Add(ses.ctx.query)
		}
	}
	if pool == nil {
		accumulate(0, len(samples), 0)
	} else {
		pool.ForRangeWorker(len(samples), accumulate)
	}
	// Merge worker-local counts; bundler addition commutes, so the
	// result is the exact multiset count whatever the split was.
	merged := make([]*hv.Bundler, k)
	for c := 0; c < k; c++ {
		for w := 0; w < workers; w++ {
			if acc[w][c] == nil {
				continue
			}
			if merged[c] == nil {
				merged[c] = acc[w][c]
			} else {
				merged[c].Merge(acc[w][c])
			}
		}
		if merged[c] == nil {
			// Cannot happen: every label came from a sample.
			merged[c] = hv.NewBundler(sv.cfg.D)
		}
	}
	protos := make([]hv.Vector, k)
	for c := 0; c < k; c++ {
		protos[c] = merged[c].Vector(nil)
	}

	m := servingMetrics()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	sv.mu.Lock()
	sv.labels = labels
	sv.accum = merged
	old := sv.gen.Load()
	next := &generation{
		id: old.id + 1,
		am: NewShardedAM(sv.cfg.D, append([]string(nil), labels...), protos, sv.shards),
	}
	sv.gen.Store(next)
	sv.mu.Unlock()
	if m != nil {
		m.RecordPublish(time.Since(start))
	}
	return nil
}

// session returns a pooled Session (allocating one on first use).
func (sv *Serving) session() *Session {
	if s, ok := sv.sessions.Get().(*Session); ok {
		return s
	}
	return sv.NewSession()
}

// Predict classifies one window against the current generation. Safe
// for any number of concurrent callers; the per-call encode scratch
// comes from an internal session pool and the AM scan runs serially
// on the caller (shard by shard when the AM is sharded). Hot loops
// that want guaranteed-zero allocation or a worker pool hold their own
// Session instead.
func (sv *Serving) Predict(window [][]float64) (label string, distance int) {
	ses := sv.session()
	label, distance = ses.Predict(window)
	sv.sessions.Put(ses)
	return label, distance
}

// PredictCtx is Session.PredictCtx with no pool over a pooled Session:
// the serial shard loop runs on the caller, so any number of request
// goroutines may call it concurrently. It also returns the generation
// the predict actually scanned. A panic escaping the predict
// propagates with the Session left out of the pool, so a caller that
// recovers and retries starts from a fresh one.
func (sv *Serving) PredictCtx(ctx context.Context, window [][]float64) (label string, distance int, generation uint64) {
	ses := sv.session()
	label, distance = ses.PredictCtx(ctx, nil, window)
	generation = ses.lastGen
	sv.sessions.Put(ses)
	return label, distance, generation
}

// Session is a per-goroutine serving handle: encode scratch plus the
// pre-bound shard loop (run serially or fanned over a pool), so
// steady-state Predicts allocate nothing.
// Many Sessions share one Serving; a Session itself must not be used
// concurrently. Sessions stay valid across generation swaps — every
// call re-loads the current generation.
type Session struct {
	sv      *Serving
	ctx     *batchCtx
	am      *ShardedAM // staged for the fan-out in flight
	scratch []ShardBest
	fn      func(lo, hi int)
	// lastGen is the id of the generation the most recent predict
	// loaded and scanned. A Learn can publish between a caller reading
	// Serving.Generation() and the predict's own atomic load, so
	// callers that report the generation a result came from must read
	// it here, not from the Serving.
	lastGen uint64
	// rec and searchSpan stage the request recorder across the shard
	// fan-out: written by the predicting goroutine before ForRange,
	// read by the workers it drives (ForRange's task hand-off orders
	// the accesses, exactly as for am above).
	rec        *obs.Spans
	searchSpan obs.SpanID
}

// NewSession returns a fresh serving handle.
func (sv *Serving) NewSession() *Session {
	s := &Session{sv: sv, ctx: newEncodeCtx(sv.cfg, sv.im, sv.cim)}
	s.fn = func(lo, hi int) {
		for sh := lo; sh < hi; sh++ {
			s.searchShard(sh)
		}
	}
	return s
}

// searchShard scans one shard into the session scratch.
func (s *Session) searchShard(sh int) {
	rec := s.rec
	id := rec.StartTrack("am.shard", s.searchSpan, int32(1+sh))
	rec.Annotate(id, "shard", int64(sh))
	s.scratch[sh] = s.am.SearchShard(sh, s.ctx.query)
	rec.End(id)
}

// predict encodes window and searches the current generation, fanning
// shards over pool when one is given and looping over them on the
// caller when not.
func (s *Session) predict(pool *parallel.Pool, window [][]float64) (string, int) {
	gen := s.sv.gen.Load()
	am := gen.am
	if am.Classes() == 0 {
		panic("hdc: Serving.Predict with no classes")
	}
	s.lastGen = gen.id
	s.ctx.encodeTo(s.ctx.query, window, s.sv.cfg.NGram)
	idx, dist := s.search(am, pool, nil, obs.NoSpan)
	return am.labels[idx], dist
}

// search scans am for the session's encoded query. A single-shard AM
// takes the flat scan; otherwise every shard runs through searchShard —
// fanned over pool, or serially on the caller when pool is nil — and
// Reduce merges them, bit-identical to the flat scan either way.
func (s *Session) search(am *ShardedAM, pool *parallel.Pool, rec *obs.Spans, parent obs.SpanID) (int, int) {
	n := am.Shards()
	if n == 1 {
		return am.NearestInto(nil, s.ctx.query, nil)
	}
	if cap(s.scratch) < n {
		s.scratch = make([]ShardBest, n)
	}
	s.scratch = s.scratch[:n]
	s.am, s.rec, s.searchSpan = am, rec, parent
	if pool == nil {
		s.fn(0, n)
	} else {
		pool.ForRange(n, s.fn)
	}
	s.am, s.rec, s.searchSpan = nil, nil, obs.NoSpan
	return Reduce(s.scratch)
}

// PredictCtx classifies one window with request-scoped observability:
// when ctx carries an obs.Spans recorder (obs.WithSpans) the encode,
// the AM search, and each shard scan record as spans under the
// recorder's staged parent, and the per-stage latency histograms fill.
// A non-nil pool fans the shard scans over its workers, bit-identical
// to the serial loop. With no recorder and no metrics sink installed
// it is byte-for-byte the plain predict path — zero allocations, one
// context lookup.
func (s *Session) PredictCtx(ctx context.Context, pool *parallel.Pool, window [][]float64) (label string, distance int) {
	rec := obs.SpansFrom(ctx)
	m := metrics()
	if rec == nil && m == nil {
		return s.predict(pool, window)
	}
	start := time.Now()
	root := rec.Start("predict", rec.Parent())
	label, distance = s.predictStaged(rec, m, root, pool, window)
	rec.End(root)
	if m != nil {
		m.RecordPredict(time.Since(start))
	}
	return label, distance
}

// predictStaged is predict with the two pipeline stages — window
// encoding, then AM search — separately timed and spanned.
func (s *Session) predictStaged(rec *obs.Spans, m *obs.InferenceMetrics, parent obs.SpanID, pool *parallel.Pool, window [][]float64) (string, int) {
	gen := s.sv.gen.Load()
	am := gen.am
	if am.Classes() == 0 {
		panic("hdc: Serving.Predict with no classes")
	}
	s.lastGen = gen.id
	encStart := time.Now()
	enc := rec.Start("encode", parent)
	s.ctx.encodeTo(s.ctx.query, window, s.sv.cfg.NGram)
	rec.End(enc)
	encode := time.Since(encStart)

	searchStart := time.Now()
	search := rec.Start("am.search", parent)
	rec.Annotate(search, "classes", int64(am.Classes()))
	rec.Annotate(search, "generation", int64(gen.id))
	idx, dist := s.search(am, pool, rec, search)
	rec.End(search)
	m.RecordStages(encode, time.Since(searchStart))
	return am.labels[idx], dist
}

// Generation returns the id of the generation the session's most
// recent predict actually scanned (0 before any predict). Like every
// Session method it is single-goroutine: only the goroutine driving
// the session may read it.
func (s *Session) Generation() uint64 { return s.lastGen }

// Predict classifies one window with a serial AM scan: the flat scan
// for a single-shard AM, the shard loop on the caller otherwise.
func (s *Session) Predict(window [][]float64) (label string, distance int) {
	if m := metrics(); m != nil {
		start := time.Now()
		label, distance = s.predict(nil, window)
		m.RecordPredict(time.Since(start))
		return label, distance
	}
	return s.predict(nil, window)
}

// PredictBatch classifies every window in order against the current
// generation, sharding each AM search over pool (nil pool: serial).
// Results land in out, grown only when its capacity is short, so
// steady-state callers allocate nothing. Each window is classified
// against the generation current at its turn; a Learn landing midway
// applies to the remaining windows — batch callers who need one
// consistent snapshot classify against AM() directly.
func (s *Session) PredictBatch(pool *parallel.Pool, windows [][][]float64, out []Prediction) []Prediction {
	if cap(out) < len(windows) {
		out = make([]Prediction, len(windows))
	}
	out = out[:len(windows)]
	for i, w := range windows {
		label, dist := s.predict(pool, w)
		out[i] = Prediction{Label: label, Distance: dist}
	}
	return out
}
