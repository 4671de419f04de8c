package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pulphd/internal/experiments"
)

// stubCampaign is a two-window campaign: test window 0 is an "a"
// gesture, training window 0 a "b" one.
func stubCampaign() *campaign {
	return &campaign{
		test:        []experiments.LabeledWindow{{Label: "a"}},
		train:       []experiments.LabeledWindow{{Label: "b"}},
		testBodies:  [][]byte{[]byte(`{"window":[[1,2,3,4]]}`)},
		trainBodies: [][]byte{[]byte(`{"label":"b","window":[[1,2,3,4]]}`)},
		labels:      map[string]bool{"a": true, "b": true},
	}
}

// runStub drives seq for 100 ms over one connection against a server
// answering /predict with predict and /learn with learn.
func runStub(t *testing.T, seq []request, want []answer, predict, learn func() any) *phaseStats {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := predict
		if r.URL.Path == "/learn" {
			resp = learn
		}
		json.NewEncoder(w).Encode(resp())
	}))
	defer srv.Close()
	c := stubCampaign()
	p := phase{
		w:      &workload{name: "stub", seq: seq},
		c:      c,
		check:  &checker{want: want, labels: c.labels, classes: len(c.labels)},
		client: srv.Client(),
		base:   srv.URL,
		conns:  1,
		dur:    100 * time.Millisecond,
	}
	st := p.run(context.Background())
	if st.predicts == 0 {
		t.Fatal("the phase sent no predicts")
	}
	return st
}

func TestCheckFlagsWrongLabel(t *testing.T) {
	seq := []request{{kind: predict, tenant: -1, window: 0}}
	want := []answer{{label: "a", distance: 7}}
	answer := func(label string) func() any {
		return func() any { return predictResponse{Label: label, Distance: 7} }
	}
	if st := runStub(t, seq, want, answer("a"), nil); st.wrong != 0 || st.okPredicts != st.predicts {
		t.Fatalf("a server agreeing with the reference was flagged: %d wrong of %d (%s)", st.wrong, st.predicts, st.firstWrong)
	}
	if st := runStub(t, seq, want, answer("b"), nil); st.wrong != st.predicts || st.okPredicts != 0 {
		t.Fatalf("a wrong label passed: %d wrong of %d", st.wrong, st.predicts)
	}
	if st := runStub(t, seq, want, func() any { return predictResponse{Label: "a", Distance: 8} }, nil); st.wrong != st.predicts {
		t.Fatalf("a wrong distance passed: %d wrong of %d", st.wrong, st.predicts)
	}
}

func TestCheckFlagsRegressedGeneration(t *testing.T) {
	// One connection alternates learn, predict: each predict is sent
	// after the learn before it was acknowledged.
	seq := []request{{kind: learn, tenant: -1}, {kind: predict, tenant: -1}}
	for _, tc := range []struct {
		name      string
		predicted func(gen uint64) uint64
		wantWrong bool
	}{
		{"read-your-writes", func(gen uint64) uint64 { return gen }, false},
		{"regressed", func(gen uint64) uint64 { return gen - 1 }, true},
	} {
		var gen atomic.Uint64
		learnResp := func() any { return learnResponse{Generation: gen.Add(1), Classes: 2} }
		predictResp := func() any { return predictResponse{Label: "a", Generation: tc.predicted(gen.Load())} }
		st := runStub(t, seq, nil, predictResp, learnResp)
		if st.learns == 0 || st.okLearns != st.learns {
			t.Fatalf("%s: learns %d, acknowledged %d (%s)", tc.name, st.learns, st.okLearns, st.firstWrong)
		}
		if got := st.wrong > 0; got != tc.wantWrong || (tc.wantWrong && st.wrong != st.predicts) {
			t.Fatalf("%s: %d of %d predicts flagged (%s)", tc.name, st.wrong, st.predicts, st.firstWrong)
		}
	}
}

func TestCheckFlagsLabelOutsideClassSet(t *testing.T) {
	seq := []request{{kind: predict, tenant: -1}}
	st := runStub(t, seq, nil, func() any { return predictResponse{Label: "zz"} }, nil)
	if st.wrong != st.predicts {
		t.Fatalf("a label outside the class set passed: %d wrong of %d", st.wrong, st.predicts)
	}
}

func TestFaultyStatusFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		code    int
		correct bool
	}{
		{http.StatusInternalServerError, false},
		{http.StatusNotFound, false},
		{http.StatusTooManyRequests, true},
		{http.StatusGatewayTimeout, true},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.code)
		}))
		c := stubCampaign()
		p := phase{
			w:      &workload{name: "stub", seq: []request{{kind: predict, tenant: -1}}},
			c:      c,
			check:  &checker{labels: c.labels, classes: len(c.labels)},
			client: srv.Client(),
			base:   srv.URL,
			conns:  1,
			dur:    20 * time.Millisecond,
		}
		st := p.run(context.Background())
		srv.Close()
		if st.predicts == 0 || st.failed() != st.predicts {
			t.Errorf("status %d: %d of %d predicts counted as failed", tc.code, st.failed(), st.predicts)
		}
		if got := answersCorrect(st); got != tc.correct {
			t.Errorf("status %d: answersCorrect = %v, want %v", tc.code, got, tc.correct)
		}
	}
}
