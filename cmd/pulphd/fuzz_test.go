package main

import (
	"encoding/json"
	"strings"
	"testing"

	"pulphd/internal/hdc"
)

// FuzzPredictHTTP feeds arbitrary bodies to the /predict request
// decoder — the parse-and-validate surface every remote caller hits —
// and checks it differentially against the encoding/json decoder it
// replaced. The contract: any input yields an error or a window the
// model accepts without panicking; a body the decoder accepts, the
// oracle accepts too with bit-identical values; and a body the oracle
// accepts, re-encoded by encoding/json, the decoder accepts.
func FuzzPredictHTTP(f *testing.F) {
	cfg := testServingConfig()
	sv, err := hdc.NewServing(cfg, 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := sv.Retrain(nil, []hdc.Sample{
		{Label: "rest", Window: testWindow(cfg, 2)},
		{Label: "fist", Window: testWindow(cfg, 16)},
	}); err != nil {
		f.Fatal(err)
	}

	f.Add(`{"window": [[1, 2, 3, 4]]}`)
	f.Add(`{"window": [[1, 2, 3, 4], [5, 6, 7, 8]]}`)
	f.Add(`{"window": []}`)
	f.Add(`{"window": [[1]]}`)
	f.Add(`{"window": [[1e999, 2, 3, 4]]}`)
	f.Add(`{"window": null}`)
	f.Add(`{"label": "x", "window": [[1, 2, 3, 4]]}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`[[1, 2, 3, 4]]`)
	f.Add(`{"window": [[1, 2, 3, 4]]}{"window": [[1, 2, 3, 4]]}`)
	f.Add(`{"WINDOW": [[null, -0, 1.5e-3, 4E+2]]}`)
	f.Add(`{"window": [[1, 2, 3, 4]], "window": [[1, 2, 3, 4]]} ]`)

	f.Fuzz(func(t *testing.T, body string) {
		window, err := decodePredictWindow(sv, strings.NewReader(body))
		want, oerr := oracleDecodePredict(sv, body)
		if oerr == nil {
			canon, _ := json.Marshal(predictRequest{Window: nullsAsEmpty(want)})
			again, err := decodePredictWindow(sv, strings.NewReader(string(canon)))
			if err != nil {
				t.Fatalf("refused encoding/json's own encoding %s: %v", canon, err)
			}
			sameWindow(t, again, want)
		}
		if err != nil {
			return
		}
		if oerr != nil {
			t.Fatalf("accepted a body encoding/json refuses (%v): %q", oerr, body)
		}
		sameWindow(t, window, want)
		// Decoded windows must be servable: Predict panics on shapes the
		// decoder should have rejected.
		if label, dist := sv.Predict(window); label == "" || dist < 0 || dist > cfg.D {
			t.Fatalf("accepted window predicted (%q,%d)", label, dist)
		}
	})
}

// FuzzLearnHTTP is FuzzPredictHTTP's differential check for /learn
// bodies, label included. One buffer serves every input, as a pooled
// buffer serves request after request, so state leaking from one body
// into the next decode fails here too.
func FuzzLearnHTTP(f *testing.F) {
	f.Add(`{"label": "rest", "window": [[1, 2, 3, 4]]}`)
	f.Add(`{"window": [[1, 2, 3, 4], [5, 6, 7, 8]], "label": "fist"}`)
	f.Add(`{"label": "<a&b> \"q\" \\   😀", "window": []}`)
	f.Add("{\"label\": \"\xff\xfe\", \"window\": [[0]]}")
	f.Add(`{"label": "a", "label": "b"}`)
	f.Add(`{"label": null, "window": [[null]]}`)
	f.Add(`{"Label": "a", "WINDOW": [[1]]}`)
	f.Add(`{"label": "a", "window": [[1, 2, 3, 4]]}{"label": "b", "window": [[5, 6, 7, 8]]}`)
	f.Add(`{"label": "a", "window": [[1, 2, 3, 4]]} trailing`)
	f.Add(`{"label": "bad \x escape"}`)
	f.Add(`{"label": "many rows", "window": [` + strings.Repeat(`[1, 2, 3, 4], `, 63) + `[5, 6, 7, 8]]}`)

	var b wireBuf
	f.Fuzz(func(t *testing.T, body string) {
		label, window, err := b.decode(strings.NewReader(body), true)
		wantLabel, want, oerr := oracleDecode(body, true)
		if err == nil {
			if oerr != nil {
				t.Fatalf("accepted a body encoding/json refuses (%v): %q", oerr, body)
			}
			if label != wantLabel {
				t.Fatalf("label %q, encoding/json %q", label, wantLabel)
			}
			sameWindow(t, window, want)
		}
		if oerr == nil {
			canon, _ := json.Marshal(learnRequest{Label: wantLabel, Window: nullsAsEmpty(want)})
			label, again, err := b.decode(strings.NewReader(string(canon)), true)
			if err != nil {
				t.Fatalf("refused encoding/json's own encoding %s: %v", canon, err)
			}
			if label != wantLabel {
				t.Fatalf("label %q, encoding/json %q", label, wantLabel)
			}
			sameWindow(t, again, want)
		}
	})
}
