package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"pulphd/internal/hdc"
)

// The request and response shapes as encoding/json sees them. The wire
// codec must agree with these byte for byte; the tests build bodies and
// read answers through them.

type predictRequest struct {
	Window [][]float64 `json:"window"`
}

type predictResponse struct {
	Label      string `json:"label"`
	Distance   int    `json:"distance"`
	Generation uint64 `json:"generation"`
	Model      string `json:"model,omitempty"`
}

type learnRequest struct {
	Label  string      `json:"label"`
	Window [][]float64 `json:"window"`
}

type learnResponse struct {
	Generation uint64 `json:"generation"`
	Classes    int    `json:"classes"`
	Model      string `json:"model,omitempty"`
}

// oracleDecode is the encoding/json decoding the wire codec replaced,
// kept as the differential oracle: unknown fields refused, and nothing
// but a closing delimiter or the end after the object (what
// json.Decoder.More reports).
func oracleDecode(body string, learn bool) (label string, window [][]float64, err error) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if learn {
		var req learnRequest
		err = dec.Decode(&req)
		label, window = req.Label, req.Window
	} else {
		var req predictRequest
		err = dec.Decode(&req)
		window = req.Window
	}
	if err != nil {
		return "", nil, err
	}
	if dec.More() {
		return "", nil, errors.New("trailing data after request object")
	}
	return label, window, nil
}

// oracleDecodePredict is the encoding/json /predict decoder in full,
// shape and finiteness checks included.
func oracleDecodePredict(sv *hdc.Serving, body string) ([][]float64, error) {
	_, window, err := oracleDecode(body, false)
	if err != nil {
		return nil, err
	}
	if err := sv.ValidateWindow(window); err != nil {
		return nil, err
	}
	for _, row := range window {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, errors.New("window values must be finite")
			}
		}
	}
	return window, nil
}

// sameWindow fails unless got and want hold the same rows with
// bit-identical values (nil and empty count as equal).
func sameWindow(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("window has %d rows, oracle %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d has %d values, oracle %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("value [%d][%d] = %v, oracle %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// nullsAsEmpty copies w with every nil row, and a nil w itself, made
// empty: encoding/json decodes null and [] alike into a slice but
// encodes nil as null, which the strict codec refuses.
func nullsAsEmpty(w [][]float64) [][]float64 {
	out := make([][]float64, len(w))
	for i, row := range w {
		if row == nil {
			row = []float64{}
		}
		out[i] = row
	}
	return out
}

func TestWireDecodeMatchesEncodingJSON(t *testing.T) {
	var b wireBuf
	for _, body := range []string{
		`{"window":[[1,2,3,4]]}`,
		" \t\r\n{ \"window\" : [ [ -0 , 0.5e-3 , 1E+2 , 123456789012345678901234567890 ] , [ ] ] } \n",
		`{"window":[[4.9e-324,1.7976931348623157e308,-2.5E-1,1e-400]]}`,
		`{"window":[]}`,
		`{}`,
		`{"label":"rest","window":[[1,2,3,4]]}`,
		`{"window":[[1,2,3,4]],"label":"<a&b>"}`,
		`{"label":"café \"q\" \\ \/","window":[]}`,
		"{\"label\":\"\xff\xfe raw\",\"window\":[]}",
		"{\"label\":\"\x7f\"}",
	} {
		learn := strings.Contains(body, `"label"`)
		label, window, err := b.decode(strings.NewReader(body), learn)
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		wantLabel, want, err := oracleDecode(body, learn)
		if err != nil {
			t.Fatalf("%q: oracle: %v", body, err)
		}
		if label != wantLabel {
			t.Fatalf("%q: label %q, oracle %q", body, label, wantLabel)
		}
		sameWindow(t, window, want)
	}
}

// TestWireDecodeRejects pins every body the strict decoder refuses,
// including the ones encoding/json used to coerce or accept.
func TestWireDecodeRejects(t *testing.T) {
	var b wireBuf
	for _, tc := range []struct {
		body  string
		learn bool
	}{
		{``, false},
		{`   `, false},
		{`null`, false},
		{`[[1,2,3,4]]`, false},
		{`{"window":null}`, false},
		{`{"window":[null]}`, false},
		{`{"window":[[null,2,3,4]]}`, false},
		{`{"window":[["1",2,3,4]]}`, false},
		{`{"window":[[true]]}`, false},
		{`{"WINDOW":[[1,2,3,4]]}`, false},
		{`{"Window":[[1,2,3,4]]}`, false},
		{`{"window":[[1]],"window":[[1,2,3,4]]}`, false},
		{`{"label":"x","window":[[1,2,3,4]]}`, false},
		{`{"window":[[1,2,3,4]]}}`, false},
		{`{"window":[[1,2,3,4]]}]`, false},
		{`{"window":[[1,2,3,4]]}{}`, false},
		{`{"window":[[1,2,3,4]]} x`, false},
		{`{"window":[[1,2,3,4],]}`, false},
		{`{"window":[[1,2,3,4,]]}`, false},
		{`{"window":[[1 2]]}`, false},
		{`{"window":[[01]]}`, false},
		{`{"window":[[+1]]}`, false},
		{`{"window":[[.5]]}`, false},
		{`{"window":[[1.]]}`, false},
		{`{"window":[[1e]]}`, false},
		{`{"window":[[-]]}`, false},
		{`{"window":[[NaN]]}`, false},
		{`{"window":[[Infinity]]}`, false},
		{`{"window":[[0x10]]}`, false},
		{`{"window":[[1e999]]}`, false},
		{`{"window":[[1,2,3,4]],}`, false},
		{`{"window":[[1,2,3,4]]`, false},
		{`{,}`, false},
		{`{"label":null,"window":[[1,2,3,4]]}`, true},
		{`{"label":1,"window":[[1,2,3,4]]}`, true},
		{`{"label":"a","label":"b","window":[[1,2,3,4]]}`, true},
		{`{"Label":"a","window":[[1,2,3,4]]}`, true},
		{`{"label":"bad \x escape"}`, true},
		{"{\"label\":\"raw\ncontrol\"}", true},
		{`{"label":"open`, true},
		{`{"label":"a","window":[[1,2,3,4]]}{"label":"b","window":[[5,6,7,8]]}`, true},
		{`{"label":"a","window":[[1,2,3,4]]} trailing`, true},
	} {
		if _, _, err := b.decode(strings.NewReader(tc.body), tc.learn); err == nil {
			t.Errorf("decode(%q, learn=%v) accepted", tc.body, tc.learn)
		}
	}
}

// TestStrictBodiesOverHTTP pins the bodies encoding/json used to coerce
// or quietly accept as 400s on both routes, and that a refused /learn
// changes nothing.
func TestStrictBodiesOverHTTP(t *testing.T) {
	_, srv, sv := newTestAPI(t)
	cfg := sv.Config()
	valid := windowJSON(t, cfg, 2) // {"window":[[2,2,2,2],...]}
	window := strings.TrimSuffix(strings.TrimPrefix(valid, `{"window":`), "}")
	nulled := `{"window":` + strings.Replace(window, "[2,", "[null,", 1) + "}"
	cases := []struct{ name, body string }{
		{"null value", nulled},
		{"key case", `{"WINDOW":` + window + "}"},
		{"duplicate window", `{"window":[[1]],"window":` + window + "}"},
		{"trailing brace", valid + "}"},
		{"trailing bracket", valid + "]"},
	}
	for _, tc := range cases {
		t.Run("predict "+tc.name, func(t *testing.T) {
			if code, body := postJSON(t, srv, "/predict", tc.body); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", code, body)
			}
		})
	}
	learn := func(label string) string { return `{"label":"` + label + `",` + strings.TrimPrefix(valid, "{") }
	cases = append(cases,
		struct{ name, body string }{"second object", learn("a") + learn("b")},
		struct{ name, body string }{"trailing garbage", learn("a") + " trailing"},
		struct{ name, body string }{"duplicate label", `{"label":"a",` + strings.TrimPrefix(learn("b"), "{")},
	)
	for _, tc := range cases {
		t.Run("learn "+tc.name, func(t *testing.T) {
			body := tc.body
			if !strings.Contains(body, `"label"`) {
				body = `{"label":"a",` + strings.TrimPrefix(body, "{")
			}
			gen := sv.Generation()
			if code, resp := postJSON(t, srv, "/learn", body); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", code, resp)
			}
			if got := sv.Generation(); got != gen {
				t.Fatalf("refused learn moved the generation %d → %d", gen, got)
			}
		})
	}
}

// hostileStrings are labels and model names: plain ones, and ones the
// HTML-escaping encoder rewrites — quotes, backslashes, HTML
// metacharacters, the JavaScript line separators, control bytes and
// invalid UTF-8.
var hostileStrings = []string{
	"", "rest", `"`, `\`, "<", ">", "&", "a<b", "\u2028", "\u2029", "line\u2028sep",
	"\x00", "\x01\x1f", "\b\f\n\r\t", "\x7f", "\xff", "a\xc3", "\xed\xa0\x80",
	"café", "😀", `{"label":"x"}`, "</script>",
}

// TestWireResponsesMatchEncoder pins the appended answers to the exact
// bytes json.NewEncoder(w).Encode writes for the same values.
func TestWireResponsesMatchEncoder(t *testing.T) {
	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, label := range hostileStrings {
		for _, model := range hostileStrings {
			for _, n := range []struct {
				dist int
				gen  uint64
			}{{0, 0}, {4031, 17}, {-1, math.MaxUint64}} {
				got := string(appendPredictResponse(nil, label, n.dist, n.gen, model))
				want := encode(predictResponse{Label: label, Distance: n.dist, Generation: n.gen, Model: model})
				if got != want {
					t.Fatalf("predict answer %q, encoder %q", got, want)
				}
				got = string(appendLearnResponse(nil, n.gen, n.dist, model))
				want = encode(learnResponse{Generation: n.gen, Classes: n.dist, Model: model})
				if got != want {
					t.Fatalf("learn answer %q, encoder %q", got, want)
				}
			}
		}
	}
}

// TestHostileLabelRoundTrip learns a label that needs every kind of
// escaping through /learn, then checks /predict answers it with the
// bytes encoding/json would have written.
func TestHostileLabelRoundTrip(t *testing.T) {
	_, srv, sv := newTestAPI(t)
	cfg := sv.Config()
	const label = "<fist & \"point\" \\>"
	body, err := json.Marshal(learnRequest{Label: label, Window: testWindow(cfg, 40)})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := postJSON(t, srv, "/learn", string(body))
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(learnResponse{Generation: sv.Generation(), Classes: sv.Classes()})
	if code != http.StatusOK || resp != buf.String() {
		t.Fatalf("learn: %d %q, want 200 %q", code, resp, buf.String())
	}
	code, resp = postJSON(t, srv, "/predict", windowJSON(t, cfg, 40))
	var pred predictResponse
	if err := json.Unmarshal([]byte(resp), &pred); err != nil || code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, resp)
	}
	buf.Reset()
	json.NewEncoder(&buf).Encode(predictResponse{Label: label, Distance: pred.Distance, Generation: pred.Generation})
	if resp != buf.String() {
		t.Fatalf("predict answer %q, encoder %q", resp, buf.String())
	}
}

// BenchmarkDecodeWindow measures decoding one EMG /predict body — read,
// scan, number conversion and shape check — into a reused buffer, the
// request-path decode layer on its own.
func BenchmarkDecodeWindow(b *testing.B) {
	api, body := handlerAPI(b)
	sv, err := api.reg.Serving("default")
	if err != nil {
		b.Fatal(err)
	}
	var buf wireBuf
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if _, err := buf.decodePredict(sv, rd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeWindowRef is BenchmarkDecodeWindow through the
// encoding/json decoder the codec replaced, for comparison in one run.
func BenchmarkDecodeWindowRef(b *testing.B) {
	api, body := handlerAPI(b)
	sv, err := api.reg.Serving("default")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracleDecodePredict(sv, string(body)); err != nil {
			b.Fatal(err)
		}
	}
}
