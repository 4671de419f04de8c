package main

// The generator is the benchmark's own, not internal/load's: load's
// open-loop path starts each request's clock when it is sent, which
// hides the wait a server stall imposes on the requests due behind it,
// and opens up to 1024 connections, which on a 2-CPU host measures the
// scheduler. Here a fixed pool of nproc connections carries every
// request, and open-loop latency is timed from each request's due
// time, with the generator's own lateness reported beside it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// newClient returns an HTTP client over at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

type predictResponse struct {
	Label      string `json:"label"`
	Distance   int    `json:"distance"`
	Generation uint64 `json:"generation"`
}

type learnResponse struct {
	Generation uint64 `json:"generation"`
	Classes    int    `json:"classes"`
}

// checker validates every answer the server gives.
//   - With references (predict-closed, fleet-evict), a predict's label
//     and distance must equal the in-process reference's.
//   - Without (mixed-open, whose model learns while it is measured), a
//     predict's generation must be at least every generation
//     acknowledged by a learn that completed before it was sent, and
//     its label must be in the class set; a learn's acknowledged
//     generation must exceed every one acknowledged before it was sent.
type checker struct {
	want    []answer
	labels  map[string]bool
	classes int
	acked   atomic.Uint64
}

// ack raises the acknowledged-generation floor to gen.
func (c *checker) ack(gen uint64) {
	for {
		cur := c.acked.Load()
		if gen <= cur || c.acked.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// predict checks the answer to sequence index i, sent when the floor
// was floor.
func (c *checker) predict(i int, floor uint64, r predictResponse) error {
	if c.want != nil {
		if w := c.want[i%len(c.want)]; r.Label != w.label || r.Distance != w.distance {
			return fmt.Errorf("request %d: got %s/%d, reference %s/%d", i, r.Label, r.Distance, w.label, w.distance)
		}
		return nil
	}
	if r.Generation < floor {
		return fmt.Errorf("request %d: generation %d regressed below acknowledged %d", i, r.Generation, floor)
	}
	if !c.labels[r.Label] {
		return fmt.Errorf("request %d: label %q not in the class set", i, r.Label)
	}
	return nil
}

// learn checks a learn acknowledgement and raises the floor.
func (c *checker) learn(i int, floor uint64, r learnResponse) error {
	if r.Generation <= floor || r.Classes != c.classes {
		return fmt.Errorf("request %d: learn acked generation %d with %d classes; want > %d with %d",
			i, r.Generation, r.Classes, floor, c.classes)
	}
	c.ack(r.Generation)
	return nil
}

// phaseStats is what one measured phase observed. Latencies are in
// milliseconds.
type phaseStats struct {
	predictLat, learnLat []float64 // from due time (open loop) or send
	predictRTT           []float64 // send to answer
	floor                []float64 // /healthz round trips (traced phase)
	late                 []float64 // how late the generator sent (open loop)
	predicts, learns     int       // attempted
	okPredicts, okLearns int
	truePredicts         int // answers whose label is the window's gesture
	shed, timeout        int // 429, 504
	err5xx, otherErr     int // other 5xx; 4xx and transport errors
	wrong                int // answers the checker rejected
	firstWrong           string
	elapsed              time.Duration
	sent                 int // sequence indices sent: first..first+sent-1
}

func (s *phaseStats) failed() int { return s.shed + s.timeout + s.err5xx + s.otherErr + s.wrong }

func (s *phaseStats) merge(o *phaseStats) {
	s.predictLat = append(s.predictLat, o.predictLat...)
	s.learnLat = append(s.learnLat, o.learnLat...)
	s.predictRTT = append(s.predictRTT, o.predictRTT...)
	s.floor = append(s.floor, o.floor...)
	s.late = append(s.late, o.late...)
	s.predicts += o.predicts
	s.learns += o.learns
	s.sent += o.sent
	s.elapsed += o.elapsed
	s.okPredicts += o.okPredicts
	s.okLearns += o.okLearns
	s.truePredicts += o.truePredicts
	s.shed += o.shed
	s.timeout += o.timeout
	s.err5xx += o.err5xx
	s.otherErr += o.otherErr
	if s.wrong == 0 && o.wrong > 0 {
		s.firstWrong = o.firstWrong
	}
	s.wrong += o.wrong
}

// phase drives one stretch of a workload's request sequence against a
// live server.
type phase struct {
	w      *workload
	c      *campaign
	check  *checker
	client *http.Client
	base   string
	conns  int
	// first is the sequence index the phase starts at.
	first int
	dur   time.Duration
	// probeEvery > 0 makes each connection send a /healthz after every
	// probeEvery requests: the network/HTTP floor of the traced run.
	probeEvery int
}

// run drives the phase to its end and returns what it saw.
func (p *phase) run(ctx context.Context) *phaseStats {
	runtime.GC()
	var next atomic.Int64
	next.Store(int64(p.first))
	start := time.Now()
	end := start.Add(p.dur)
	parts := make([]*phaseStats, p.conns)
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = &phaseStats{}
		wg.Add(1)
		go func(st *phaseStats) {
			defer wg.Done()
			for n := 1; ctx.Err() == nil; n++ {
				if p.w.rate == 0 && !time.Now().Before(end) {
					return
				}
				i := int(next.Add(1) - 1)
				var due time.Time
				if p.w.rate > 0 {
					// Indices are taken in order, so the ones due past
					// the end, which no worker sends, are the highest.
					due = start.Add(time.Duration(float64(i-p.first) / p.w.rate * float64(time.Second)))
					if !due.Before(end) {
						return
					}
					sleepUntil(due)
				}
				p.do(ctx, i, due, st)
				if p.probeEvery > 0 && n%p.probeEvery == 0 {
					p.probe(ctx, st)
				}
			}
		}(parts[k])
	}
	wg.Wait()
	total := &phaseStats{}
	for _, st := range parts {
		total.merge(st)
	}
	total.elapsed = time.Since(start)
	total.sent = total.predicts + total.learns
	return total
}

// url returns the route for request r.
func (p *phase) url(r request) string {
	op := "/predict"
	if r.kind == learn {
		op = "/learn"
	}
	if r.tenant < 0 {
		return p.base + op
	}
	return p.base + "/models/" + tenantName(int(r.tenant)) + op
}

// do sends sequence index i, checks the answer and records it. due is
// the zero time in a closed loop.
func (p *phase) do(ctx context.Context, i int, due time.Time, st *phaseStats) {
	r := p.w.seq[i%len(p.w.seq)]
	body := p.c.testBodies[r.window]
	if r.kind == learn {
		body = p.c.trainBodies[r.window]
		st.learns++
	} else {
		st.predicts++
	}
	floor := p.check.acked.Load()
	sent := time.Now()
	if !due.IsZero() {
		st.late = append(st.late, ms(sent.Sub(due)))
	} else {
		due = sent
	}
	code, data, err := post(ctx, p.client, p.url(r), body)
	done := time.Now()
	switch {
	case err != nil:
		st.otherErr++
		return
	case code == http.StatusTooManyRequests:
		st.shed++
		return
	case code == http.StatusGatewayTimeout:
		st.timeout++
		return
	case code >= 500:
		st.err5xx++
		return
	case code != http.StatusOK:
		st.otherErr++
		return
	}
	var cerr error
	if r.kind == learn {
		var resp learnResponse
		if cerr = json.Unmarshal(data, &resp); cerr == nil {
			cerr = p.check.learn(i, floor, resp)
		}
		if cerr == nil {
			st.okLearns++
			st.learnLat = append(st.learnLat, ms(done.Sub(due)))
		}
	} else {
		var resp predictResponse
		if cerr = json.Unmarshal(data, &resp); cerr == nil {
			cerr = p.check.predict(i, floor, resp)
		}
		if cerr == nil {
			st.okPredicts++
			st.predictLat = append(st.predictLat, ms(done.Sub(due)))
			st.predictRTT = append(st.predictRTT, ms(done.Sub(sent)))
			if resp.Label == p.c.test[r.window].Label {
				st.truePredicts++
			}
		}
	}
	if cerr != nil {
		if st.wrong == 0 {
			st.firstWrong = cerr.Error()
		}
		st.wrong++
	}
}

// probe times one /healthz round trip.
func (p *phase) probe(ctx context.Context, st *phaseStats) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
	if err != nil {
		return
	}
	t := time.Now()
	resp, err := p.client.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		st.floor = append(st.floor, ms(time.Since(t)))
	}
}

// post sends body to url and returns the status and response body.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sleepUntil blocks the calling thread until t. time.Sleep cannot pace
// an open loop at these rates: with the process otherwise idle, the Go
// runtime waits in epoll with millisecond granularity, so a 300 µs
// sleep overshoots by ≈0.8 ms and the overshoot would read as server
// latency. nanosleep(2) wakes within tens of µs.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
	}
}
