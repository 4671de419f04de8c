// Package stream wraps the HD classifier for real-time operation, the
// deployment mode of the paper's wearable system: envelope samples
// arrive at the acquisition rate (500 Hz), a classification fires
// every detection period (10 ms → every 5th sample), and the raw
// per-window decisions pass through a majority filter — the standard
// post-processing of embedded gesture controllers, which suppresses
// the isolated errors that motion artifacts cause.
package stream

import (
	"fmt"

	"pulphd/internal/hdc"
	"pulphd/internal/parallel"
)

// Config parameterizes the streaming front end.
type Config struct {
	// DetectionStride is the number of incoming samples between
	// classifications (5 at 500 Hz reproduces the paper's 10 ms
	// detection latency).
	DetectionStride int
	// SmoothWindow is the number of most recent raw decisions the
	// majority filter votes over; 1 disables smoothing.
	SmoothWindow int
}

// DefaultConfig matches the paper's real-time operating point with a
// 5-decision (50 ms) majority filter.
func DefaultConfig() Config {
	return Config{DetectionStride: 5, SmoothWindow: 5}
}

func (c Config) validate() error {
	if c.DetectionStride < 1 {
		return fmt.Errorf("stream: detection stride %d must be ≥1", c.DetectionStride)
	}
	if c.SmoothWindow < 1 {
		return fmt.Errorf("stream: smoothing window %d must be ≥1", c.SmoothWindow)
	}
	return nil
}

// Decision is one emitted classification.
type Decision struct {
	// Raw is the label of this window alone.
	Raw string
	// Smoothed is the majority vote over the last SmoothWindow raw
	// decisions (ties resolve to the most recent raw label).
	Smoothed string
	// Distance is the Hamming distance of the raw decision.
	Distance int
	// Sample is the index of the sample that triggered the decision.
	Sample int
}

// Predictor is the model a stream classifies against. *hdc.Classifier
// is the offline-trained model; *hdc.Serving is the hot-swappable
// online-learning one — both satisfy it.
type Predictor interface {
	Config() hdc.Config
	Predict(window [][]float64) (label string, distance int)
}

// Learner is the optional online-learning extension of a Predictor
// (*hdc.Serving implements it). When a stream's predictor is also a
// Learner, Correct can fold label-corrected windows back into the
// model without stopping the stream.
type Learner interface {
	Learn(label string, window [][]float64) error
}

// Classifier is the streaming wrapper. It is not safe for concurrent
// use; one stream corresponds to one acquisition channel set.
type Classifier struct {
	cls  Predictor
	hcfg hdc.Config // predictor config, cached off the hot path
	cfg  Config

	window   [][]float64 // last NGram samples, oldest first
	bufs     [][]float64 // fixed ring backing the window samples
	bufIdx   int
	nSamples int
	sinceCls int
	recent   []string // ring of raw decisions
	recentN  int
}

// New wraps a trained model — an *hdc.Classifier, an *hdc.Serving, or
// any other Predictor.
func New(cls Predictor, cfg Config) (*Classifier, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hcfg := cls.Config()
	s := &Classifier{
		cls:    cls,
		hcfg:   hcfg,
		cfg:    cfg,
		window: make([][]float64, 0, hcfg.NGram),
		bufs:   make([][]float64, hcfg.NGram),
		recent: make([]string, cfg.SmoothWindow),
	}
	for i := range s.bufs {
		s.bufs[i] = make([]float64, hcfg.Channels)
	}
	return s, nil
}

// Reset clears all streaming state (between trials/sessions).
func (s *Classifier) Reset() {
	s.window = s.window[:0]
	s.bufIdx = 0
	s.nSamples = 0
	s.sinceCls = 0
	s.recentN = 0
}

// pushSample copies sample into the rolling N-gram window and reports
// whether this sample completes a detection period with enough
// history to classify. The copy lands in a fixed ring of buffers — in
// steady state the buffer being overwritten is exactly the sample
// falling out of the window — so no allocation occurs per sample.
func (s *Classifier) pushSample(sample []float64) bool {
	if len(sample) != s.hcfg.Channels {
		panic(fmt.Sprintf("stream: Push: %d channels, want %d", len(sample), s.hcfg.Channels))
	}
	n := s.hcfg.NGram
	buf := s.bufs[s.bufIdx]
	s.bufIdx = (s.bufIdx + 1) % len(s.bufs)
	copy(buf, sample)
	if len(s.window) == n {
		copy(s.window, s.window[1:])
		s.window[n-1] = buf
	} else {
		s.window = append(s.window, buf)
	}
	s.nSamples++
	s.sinceCls++
	if len(s.window) < n || s.sinceCls < s.cfg.DetectionStride {
		return false
	}
	s.sinceCls = 0
	return true
}

// record folds one raw decision into the smoothing ring and builds the
// emitted Decision.
func (s *Classifier) record(raw string, dist, sampleIdx int) Decision {
	s.recent[s.recentN%len(s.recent)] = raw
	s.recentN++
	return Decision{
		Raw:      raw,
		Smoothed: s.vote(),
		Distance: dist,
		Sample:   sampleIdx,
	}
}

// Push feeds one time-aligned sample (one value per channel). When a
// detection period completes and enough history exists for the N-gram
// window, it returns the decision and true. In steady state Push
// performs no heap allocation. A predictor that panics on the window
// (a corrupted model, a crashed serving backend) does not kill the
// acquisition loop: the decision is dropped and the stream keeps
// running.
func (s *Classifier) Push(sample []float64) (Decision, bool) {
	if !s.pushSample(sample) {
		return Decision{}, false
	}
	raw, dist, ok := s.safePredict(s.window)
	if !ok {
		return Decision{}, false
	}
	return s.record(raw, dist, s.nSamples-1), true
}

// safePredict classifies one window, converting a predictor panic into
// a dropped decision: the stride bookkeeping has already advanced, so
// the stream simply skips this emission.
func (s *Classifier) safePredict(window [][]float64) (label string, dist int, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	label, dist = s.cls.Predict(window)
	return label, dist, true
}

// vote returns the modal label among the recent raw decisions. Ties
// resolve deterministically to the most recent among the tied labels:
// the scan runs newest → oldest and a label only takes the lead with
// a strictly greater count. The decision ring is small (the paper's
// operating point smooths over 5), so the quadratic scan beats a map
// — and allocates nothing.
func (s *Classifier) vote() string {
	n := s.recentN
	if n > len(s.recent) {
		n = len(s.recent)
	}
	var best string
	bestN := 0
	for i := 0; i < n; i++ {
		label := s.recent[(s.recentN-1-i)%len(s.recent)]
		fresh := true
		for j := 0; j < i; j++ {
			if s.recent[(s.recentN-1-j)%len(s.recent)] == label {
				fresh = false
				break
			}
		}
		if !fresh {
			continue // counted at its most recent occurrence
		}
		c := 0
		for j := i; j < n; j++ {
			if s.recent[(s.recentN-1-j)%len(s.recent)] == label {
				c++
			}
		}
		if c > bestN {
			best, bestN = label, c
		}
	}
	return best
}

// Replay feeds a whole recorded session through the stream and
// returns every decision, classifying the triggered windows in
// parallel over pool with the batched inference engine. A nil pool is
// allowed and classifies the windows serially. The stride/window
// bookkeeping and the smoothing filter run exactly as in a
// sample-by-sample Push loop, and for configurations whose batch
// encoding is bit-identical to the serial one (N-gram of 1, or an odd
// N-gram count per window — including the paper's EMG operating
// point) the decisions match that loop exactly.
func (s *Classifier) Replay(samples [][]float64, pool *parallel.Pool) []Decision {
	var windows [][][]float64
	var at []int
	for _, sample := range samples {
		if !s.pushSample(sample) {
			continue
		}
		w := make([][]float64, len(s.window))
		for i, row := range s.window {
			w[i] = append([]float64(nil), row...)
		}
		windows = append(windows, w)
		at = append(at, s.nSamples-1)
	}
	if len(windows) == 0 {
		return nil
	}
	preds, ok := s.batchPredict(windows, pool)
	if !ok {
		// The batch engine is unavailable (a plain Predictor) or its
		// collective panicked; classify serially, dropping the windows
		// whose individual predict fails.
		preds = make([]hdc.Prediction, len(windows))
		for i, w := range windows {
			label, dist, ok := s.safePredict(w)
			if !ok {
				preds[i] = hdc.Prediction{Distance: -1}
				continue
			}
			preds[i] = hdc.Prediction{Label: label, Distance: dist}
		}
	}
	out := make([]Decision, 0, len(preds))
	for i, p := range preds {
		if p.Distance < 0 {
			continue // prediction failed; the decision is dropped
		}
		out = append(out, s.record(p.Label, p.Distance, at[i]))
	}
	return out
}

// batchPredict runs the batched inference engine over the replay
// windows. ok is false when the predictor has no batch engine or the
// batch collective panicked — the panic is recovered, and the caller
// retries serially without the pool (a panic that escaped
// mid-collective may have poisoned its barriers).
func (s *Classifier) batchPredict(windows [][][]float64, pool *parallel.Pool) (preds []hdc.Prediction, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			preds, ok = nil, false
		}
	}()
	switch cls := s.cls.(type) {
	case *hdc.Classifier:
		return cls.Batch(pool).PredictBatch(windows, nil), true
	case *hdc.Serving:
		ses := cls.NewSession()
		return ses.PredictBatch(pool, windows, nil), true
	}
	return nil, false
}

// Correct folds the stream's current window back into the model under
// the given (corrected) label — the online-learning loop of the
// paper's wearable: the user signals the true gesture after a
// misclassification and the model updates in place. It requires the
// predictor to be a Learner (*hdc.Serving is) and a complete window to
// be buffered; learning publishes a new model generation that the very
// next Push classifies against.
func (s *Classifier) Correct(label string) error {
	l, ok := s.cls.(Learner)
	if !ok {
		return fmt.Errorf("stream: Correct: predictor %T cannot learn online", s.cls)
	}
	if len(s.window) < s.hcfg.NGram {
		return fmt.Errorf("stream: Correct: %d of %d window samples buffered", len(s.window), s.hcfg.NGram)
	}
	if err := l.Learn(label, s.window); err != nil {
		return fmt.Errorf("stream: Correct: %w", err)
	}
	return nil
}

// Decisions returns how many decisions have been emitted.
func (s *Classifier) Decisions() int { return s.recentN }
