package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"pulphd/internal/hdc"
)

// This file is the /predict and /learn wire codec. Both routes take one
// JSON object and answer one; the codec scans the body in a single pass
// into pooled buffers and appends the answer into the same buffer, so a
// request pays for no reflection, and in steady state the codec
// allocates nothing but a learn's label.
//
// The accepted body grammar is strict:
//
//   - exactly one JSON object (RFC 8259 whitespace around it and its
//     tokens), nothing after it;
//   - the key "window" (plus "label" on /learn), spelled exactly, each
//     at most once, in any order;
//   - "window" is an array of arrays of JSON numbers, never null; every
//     number matches the RFC 8259 grammar and is converted with
//     strconv.ParseFloat(…, 64), the call encoding/json makes, so every
//     value is bit-identical to what encoding/json decodes;
//   - "label" is a JSON string, decoded exactly as encoding/json does.

// maxPooledBody and maxPooledVals bound the buffers a wireBuf may keep
// when it returns to the pool: a rare huge request is served, then its
// buffers are left to the collector.
const (
	maxPooledBody = 64 << 10
	maxPooledVals = 8 << 10
)

// wireBuf is one request's pooled scratch: the body bytes (reused for
// the response once decoded), every window value row after row, and the
// row headers into those values.
type wireBuf struct {
	buf  []byte
	vals []float64
	rows [][]float64
}

var wirePool = sync.Pool{New: func() any { return &wireBuf{buf: make([]byte, 0, 2048)} }}

func getWire() *wireBuf { return wirePool.Get().(*wireBuf) }

// putWire returns b to the pool. Nothing decoded from b may be used
// afterwards: the window rows alias b.vals.
func putWire(b *wireBuf) {
	if cap(b.buf) > maxPooledBody || cap(b.vals) > maxPooledVals {
		return
	}
	wirePool.Put(b)
}

// decodePredictWindow parses and validates one /predict body into a
// fresh buffer. It is the fuzz surface for remote input: any malformed
// body must come back as an error, never a panic.
func decodePredictWindow(sv *hdc.Serving, body io.Reader) ([][]float64, error) {
	return new(wireBuf).decodePredict(sv, body)
}

// decodePredict parses one /predict body and checks the window's shape
// against the model.
func (b *wireBuf) decodePredict(sv *hdc.Serving, body io.Reader) ([][]float64, error) {
	_, window, err := b.decode(body, false)
	if err != nil {
		return nil, err
	}
	if err := sv.ValidateWindow(window); err != nil {
		return nil, err
	}
	return window, nil
}

// decode reads body into b and parses it; a "label" key is accepted
// only when learn is set. The returned window aliases b; the label
// never does.
func (b *wireBuf) decode(body io.Reader, learn bool) (label string, window [][]float64, err error) {
	if b.buf, err = readBody(b.buf[:0], body); err != nil {
		return "", nil, fmt.Errorf("decoding request: %w", err)
	}
	p := wireParser{data: b.buf, vals: b.vals[:0], rows: b.rows[:0]}
	label, err = p.object(learn)
	b.vals, b.rows = p.vals, p.rows
	if err != nil {
		return "", nil, err
	}
	return label, b.rows, nil
}

// readBody appends all of r to buf.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// wireParser scans one request object out of data.
type wireParser struct {
	data []byte
	pos  int
	vals []float64
	rows [][]float64
}

// syntaxErr reports an unexpected byte (or the end of the body) where
// want was expected.
func (p *wireParser) syntaxErr(want string) error {
	if p.pos >= len(p.data) {
		return fmt.Errorf("decoding request: unexpected end of body, want %s", want)
	}
	return fmt.Errorf("decoding request: invalid character %q at offset %d, want %s", p.data[p.pos], p.pos, want)
}

// ws skips RFC 8259 whitespace.
func (p *wireParser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte.
func (p *wireParser) next(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// object parses the whole body: one object, then only whitespace.
func (p *wireParser) object(learn bool) (label string, err error) {
	p.ws()
	if !p.next('{') {
		return "", p.syntaxErr("'{'")
	}
	p.ws()
	if !p.next('}') {
		var haveWindow, haveLabel bool
		for {
			if p.pos >= len(p.data) || p.data[p.pos] != '"' {
				return "", p.syntaxErr("object key")
			}
			key, _, err := p.str()
			if err != nil {
				return "", err
			}
			p.ws()
			if !p.next(':') {
				return "", p.syntaxErr("':'")
			}
			p.ws()
			switch {
			case string(key) == "window":
				if haveWindow {
					return "", errors.New(`decoding request: duplicate field "window"`)
				}
				haveWindow = true
				err = p.window()
			case learn && string(key) == "label":
				if haveLabel {
					return "", errors.New(`decoding request: duplicate field "label"`)
				}
				haveLabel = true
				label, err = p.label()
			default:
				return "", fmt.Errorf("decoding request: unknown field %q", key)
			}
			if err != nil {
				return "", err
			}
			p.ws()
			if p.next('}') {
				break
			}
			if !p.next(',') {
				return "", p.syntaxErr("',' or '}'")
			}
			p.ws()
		}
	}
	p.ws()
	if p.pos < len(p.data) {
		return "", errors.New("trailing data after request object")
	}
	return label, nil
}

// str scans the string whose opening quote is at p.pos and returns the
// raw bytes between its quotes; plain reports plain ASCII with no
// escape, whose raw bytes are already the decoded string.
func (p *wireParser) str() (raw []byte, plain bool, err error) {
	plain = true
	for i := p.pos + 1; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			raw = p.data[p.pos+1 : i]
			p.pos = i + 1
			return raw, plain, nil
		case c == '\\':
			plain = false
			i++ // the escaped byte; encoding/json checks the escape
		case c < 0x20:
			p.pos = i
			return nil, false, p.syntaxErr("string character (control bytes must be escaped)")
		case c >= 0x80:
			plain = false
		}
	}
	p.pos = len(p.data)
	return nil, false, p.syntaxErr("'\"'")
}

// label parses the "label" value. A plain token becomes a copy of its
// bytes (the registry keeps labels as class names, so they must never
// alias the pooled body); anything else goes through encoding/json, so
// escapes and invalid UTF-8 keep exactly its meaning.
func (p *wireParser) label() (string, error) {
	if p.pos >= len(p.data) || p.data[p.pos] != '"' {
		return "", p.syntaxErr("string label")
	}
	start := p.pos
	raw, plain, err := p.str()
	if err != nil {
		return "", err
	}
	if plain {
		return string(raw), nil
	}
	var label string
	if err := json.Unmarshal(p.data[start:p.pos], &label); err != nil {
		return "", fmt.Errorf("decoding request: label: %w", err)
	}
	return label, nil
}

// window parses the "window" value, an array of arrays of numbers,
// appending values to p.vals and one header per row to p.rows.
func (p *wireParser) window() error {
	if !p.next('[') {
		return p.syntaxErr("'[' opening the window")
	}
	p.ws()
	if p.next(']') {
		return nil
	}
	for {
		if !p.next('[') {
			return p.syntaxErr("'[' opening a window row")
		}
		start := len(p.vals)
		p.ws()
		if !p.next(']') {
			for {
				v, err := p.number()
				if err != nil {
					return err
				}
				p.vals = append(p.vals, v)
				p.ws()
				if p.next(']') {
					break
				}
				if !p.next(',') {
					return p.syntaxErr("',' or ']'")
				}
				p.ws()
			}
		}
		// Rows cut before vals grows again keep the array they were cut
		// from, whose values no later append touches.
		end := len(p.vals)
		p.rows = append(p.rows, p.vals[start:end:end])
		p.ws()
		if p.next(']') {
			return nil
		}
		if !p.next(',') {
			return p.syntaxErr("',' or ']'")
		}
		p.ws()
	}
}

// number scans one RFC 8259 number and converts it as encoding/json
// does. ParseFloat refuses out-of-range values (1e999), and JSON cannot
// spell NaN or an infinity, so every accepted value is finite.
func (p *wireParser) number() (float64, error) {
	d, start, i := p.data, p.pos, p.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if j := skipDigits(d, i); j > i {
		i = j
	} else {
		p.pos = i
		return 0, p.syntaxErr("number")
	}
	if i < len(d) && d[i] == '.' {
		j := skipDigits(d, i+1)
		if j == i+1 {
			p.pos = j
			return 0, p.syntaxErr("digit after '.'")
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := skipDigits(d, i)
		if j == i {
			p.pos = j
			return 0, p.syntaxErr("exponent digit")
		}
		i = j
	}
	p.pos = i
	v, err := strconv.ParseFloat(string(d[start:i]), 64)
	if err != nil {
		return 0, fmt.Errorf("decoding request: %w", err)
	}
	return v, nil
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// jsonContentType is the Content-Type of every /predict and /learn
// answer, assigned to the header map directly: Header().Set would
// canonicalise the key and allocate a fresh value slice per request.
var jsonContentType = []string{"application/json"}

// writeJSONBody sends an already-encoded JSON answer in one Write.
func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(body)
}

// appendPredictResponse appends the /predict answer, byte-identical to
// json.NewEncoder(w).Encode of {label, distance, generation, model
// (omitted when empty)}.
func appendPredictResponse(dst []byte, label string, distance int, generation uint64, model string) []byte {
	dst = append(dst, `{"label":`...)
	dst = appendJSONString(dst, label)
	dst = append(dst, `,"distance":`...)
	dst = strconv.AppendInt(dst, int64(distance), 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, generation, 10)
	return appendModelAndClose(dst, model)
}

// appendLearnResponse appends the /learn answer, byte-identical to
// json.NewEncoder(w).Encode of {generation, classes, model (omitted
// when empty)}.
func appendLearnResponse(dst []byte, generation uint64, classes int, model string) []byte {
	dst = append(dst, `{"generation":`...)
	dst = strconv.AppendUint(dst, generation, 10)
	dst = append(dst, `,"classes":`...)
	dst = strconv.AppendInt(dst, int64(classes), 10)
	return appendModelAndClose(dst, model)
}

func appendModelAndClose(dst []byte, model string) []byte {
	if model != "" {
		dst = append(dst, `,"model":`...)
		dst = appendJSONString(dst, model)
	}
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string the way encoding/json's
// HTML-escaping encoder writes it: printable ASCII other than `"`, `\`,
// `<`, `>` and `&` goes out as is; any other string takes json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
