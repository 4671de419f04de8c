package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer is the production connection loop on a loopback port,
// with the URL/Client/Close surface of httptest.Server, so the HTTP
// tests exercise the server that ships.
type testServer struct {
	URL    string
	loop   *connLoop
	client *http.Client
}

// newTestServer serves h until the test ends.
func newTestServer(t testing.TB, h http.Handler) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &testServer{
		URL:    "http://" + ln.Addr().String(),
		loop:   newConnLoop(h, slog.New(slog.NewTextHandler(os.Stderr, nil))),
		client: &http.Client{Transport: &http.Transport{}},
	}
	go s.loop.Serve(ln)
	t.Cleanup(s.Close)
	return s
}

// Client returns a client whose idle connections close with the server.
func (s *testServer) Client() *http.Client { return s.client }

// Close shuts the server down gracefully, as httptest.Server.Close
// waits out in-flight requests, and force-closes whatever is left
// after 5 s. It is idempotent.
func (s *testServer) Close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.loop.Shutdown(ctx) != nil {
		s.loop.Close()
	}
}

// conformanceMux serves the production /predict and /healthz routes
// beside probes for the transport's edge cases: /echo reads the whole
// body and answers its length, /ignore never reads it, /nocontent
// answers 204.
func conformanceMux(t testing.TB) *http.ServeMux {
	api := newEphemeralAPI(t, trainedServing(t, 1), 64, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", api.handlePredict)
	mux.HandleFunc("/healthz", api.handleHealthz)
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		n, err := io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, "%s %s read %d err %v", r.Method, r.URL.Path, n, err)
	})
	mux.HandleFunc("/ignore", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ignored")
	})
	mux.HandleFunc("/nocontent", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Probe", "1")
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// reply is one parsed response; Date is dropped.
type reply struct {
	status int
	header http.Header
	body   string
}

// exchange sends each round of raw bytes on one connection to addr,
// reading the responses to the round's methods before the next round.
// The write runs beside the reads, so a server that answers before it
// has read everything cannot deadlock it. It reports whether the
// server kept the connection open afterwards.
func exchange(t *testing.T, addr string, rounds [][]byte, methods [][]string) ([]reply, bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	var out []reply
	for i, raw := range rounds {
		go c.Write(raw)
		for _, m := range methods[i] {
			for {
				resp, err := http.ReadResponse(br, &http.Request{Method: m})
				if err != nil {
					t.Fatalf("round %d %s: %v (after %d replies)", i, m, err, len(out))
				}
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatalf("round %d %s body: %v", i, m, err)
				}
				resp.Header.Del("Date")
				out = append(out, reply{resp.StatusCode, resp.Header, string(body)})
				if resp.StatusCode >= 200 {
					break
				}
			}
		}
	}
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	_, err = br.ReadByte()
	var ne net.Error
	return out, errors.As(err, &ne) && ne.Timeout()
}

func rawGet(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n" }

func rawPost(path, extra, body string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n%s", path, extra, len(body), body)
}

// TestConnLoopMatchesNetHTTP sends the same bytes to net/http.Server
// and to the connection loop, both serving one mux, and requires the
// same status, body and headers (Date aside) for every response, and
// the same verdict on whether the connection stays open.
func TestConnLoopMatchesNetHTTP(t *testing.T) {
	mux := conformanceMux(t)
	ref := httptest.NewServer(mux)
	defer ref.Close()
	loop := newTestServer(t, mux)
	predict := windowJSON(t, testServingConfig(), 2)
	big := strings.Repeat(" ", 2<<20) + predict
	chunked := fmt.Sprintf("POST /predict HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(predict), predict)

	type tc struct {
		name    string
		rounds  []string
		methods [][]string
	}
	one := func(name, raw string, methods ...string) tc {
		if len(methods) == 0 {
			methods = []string{"GET"}
		}
		return tc{name, []string{raw}, [][]string{methods}}
	}
	cases := []tc{
		{"keep-alive sequence", []string{rawGet("/healthz"), rawPost("/predict", "", predict), rawGet("/nocontent")},
			[][]string{{"GET"}, {"POST"}, {"GET"}}},
		one("pipelined", rawPost("/predict", "", predict)+rawGet("/healthz"), "POST", "GET"),
		one("connection close", "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
		one("http/1.0", "GET /healthz HTTP/1.0\r\n\r\n"),
		one("http/1.0 keep-alive", "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
		one("chunked body", chunked, "POST"),
		one("expect 100-continue", rawPost("/predict", "Expect: 100-continue\r\n", predict), "POST"),
		one("expect 100-continue unread", rawPost("/ignore", "Expect: 100-continue\r\n", "abc"), "POST"),
		one("unknown expect", rawPost("/echo", "Expect: teapot\r\n", "abc"), "POST"),
		one("2 MiB predict", rawPost("/predict", "", big), "POST"),
		one("oversized header", "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Big: "+strings.Repeat("a", 1<<20+8192)+"\r\n\r\n"),
		one("missing host", "GET /healthz HTTP/1.1\r\n\r\n"),
		one("empty host", "GET /healthz HTTP/1.1\r\nHost:\r\n\r\n"),
		one("malformed host", "GET /healthz HTTP/1.1\r\nHost: a b\r\n\r\n"),
		one("absolute target", "GET http://x/healthz HTTP/1.1\r\nHost: y\r\n\r\n"),
		one("head", "HEAD /echo HTTP/1.1\r\nHost: x\r\n\r\n", "HEAD"),
		one("no content", rawGet("/nocontent")),
		one("unread 300 KiB body", rawPost("/ignore", "", strings.Repeat("z", 300<<10)), "POST"),
		one("unread small body", rawPost("/ignore", "", "small")+rawGet("/healthz"), "POST", "GET"),
		one("malformed request line", "BOGUS\r\n\r\n"),
		one("unsupported transfer encoding", "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n"),
		one("http/2.0", "GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n"),
		one("options star", "OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n"),
		one("not found", rawGet("/nope")),
		one("stray crlf after post", rawPost("/echo", "", "abc")+"\r\n"+rawGet("/healthz"), "POST", "GET"),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rounds := make([][]byte, len(c.rounds))
			for i, r := range c.rounds {
				rounds[i] = []byte(r)
			}
			want, wantOpen := exchange(t, strings.TrimPrefix(ref.URL, "http://"), rounds, c.methods)
			got, gotOpen := exchange(t, strings.TrimPrefix(loop.URL, "http://"), rounds, c.methods)
			if len(got) != len(want) {
				t.Fatalf("%d responses, net/http sent %d", len(got), len(want))
			}
			for i := range want {
				w, g := want[i], got[i]
				if g.status != w.status || g.body != w.body || fmt.Sprint(g.header) != fmt.Sprint(w.header) {
					t.Errorf("response %d:\n got %d %v %q\nwant %d %v %q", i, g.status, g.header, g.body, w.status, w.header, w.body)
				}
			}
			if gotOpen != wantOpen {
				t.Errorf("connection open after the exchange: %v, net/http %v", gotOpen, wantOpen)
			}
		})
	}
}

var dateLine = regexp.MustCompile(`(?m)^Date: [^\r\n]*\r$`)

// rawExchange writes raw to addr, half-closes, and returns everything
// the server sent until it closed, with Date values blanked.
func rawExchange(t *testing.T, addr string, raw []byte) []byte {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	go func() {
		c.Write(raw)
		c.(*net.TCPConn).CloseWrite()
	}()
	out, err := io.ReadAll(c)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server never closed the connection after %q", raw)
	}
	return dateLine.ReplaceAll(out, []byte("Date: -\r"))
}

// FuzzConnLoop is the differential conformance test over arbitrary
// bytes: net/http.Server and the connection loop, serving one mux,
// must send back the same bytes (Date aside), which pins every
// response's status, headers and body.
func FuzzConnLoop(f *testing.F) {
	mux := conformanceMux(f)
	ref := httptest.NewServer(mux)
	defer ref.Close()
	loop := newTestServer(f, mux)
	predict := `{"window": [[2,2,2,2]]}`
	for _, seed := range []string{
		rawGet("/healthz"),
		rawPost("/predict", "", predict) + rawGet("/healthz"),
		"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
		"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-T: 1\r\n\r\n",
		rawPost("/echo", "Expect: 100-continue\r\n", "abc"),
		rawPost("/ignore", "Expect: 100-continue\r\n", "abc"),
		rawPost("/echo", "Expect: nope\r\n", "abc"),
		"GET /healthz HTTP/1.1\r\n\r\n",
		"GET http://x/healthz HTTP/1.1\r\nHost:\r\n\r\n",
		"HEAD /echo HTTP/1.1\r\nHost: x\r\n\r\n",
		rawGet("/nocontent"),
		rawPost("/ignore", "", "unread") + rawGet("/healthz"),
		"BOGUS\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nab",
		"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nshort",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64<<10 {
			t.Skip()
		}
		want := rawExchange(t, strings.TrimPrefix(ref.URL, "http://"), raw)
		got := rawExchange(t, strings.TrimPrefix(loop.URL, "http://"), raw)
		if !bytes.Equal(got, want) {
			t.Fatalf("for %q\n got %q\nwant %q", raw, got, want)
		}
	})
}

// TestConnLoopShutdown pins graceful shutdown: an in-flight /predict
// finishes (told to close), an idle keep-alive connection is closed,
// new dials are refused, and a request still running when the grace
// expires makes Shutdown return ctx.Err().
func TestConnLoopShutdown(t *testing.T) {
	api := newEphemeralAPI(t, trainedServing(t, 1), 8, nil)
	started, release := make(chan struct{}, 1), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		api.handlePredict(w, r)
	})
	mux.HandleFunc("/healthz", api.handleHealthz)
	srv := newTestServer(t, mux)
	addr := strings.TrimPrefix(srv.URL, "http://")

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	io.WriteString(idle, rawGet("/healthz"))
	idleR := bufio.NewReader(idle)
	resp, err := http.ReadResponse(idleR, nil)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("idle connection's request: %v %v", resp, err)
	}
	io.ReadAll(resp.Body)

	type result struct {
		resp *http.Response
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(windowJSON(t, testServingConfig(), 2)))
		if err != nil {
			done <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{resp, string(body), err}
	}()
	<-started
	shut := make(chan error, 1)
	go func() { shut <- srv.loop.Shutdown(context.Background()) }()

	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idleR.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection: read %v, want EOF", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("dial succeeded after Shutdown began")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	r := <-done
	if r.err != nil || r.resp.StatusCode != 200 || !strings.Contains(r.body, `"label":"rest"`) {
		t.Fatalf("in-flight predict: %+v", r)
	}
	if !r.resp.Close {
		t.Error("in-flight answer during shutdown lacks Connection: close")
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// A request outliving the grace period: Shutdown gives up with
	// ctx.Err() and the request's context is cancelled.
	ctxDone := make(chan error, 1)
	hang := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-r.Context().Done()
		ctxDone <- r.Context().Err()
	})
	srv2 := newTestServer(t, hang)
	go http.Get(srv2.URL)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv2.loop.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown past its grace: %v, want %v", err, context.DeadlineExceeded)
	}
	if err := <-ctxDone; err != context.Canceled {
		t.Fatalf("request context after Shutdown: %v, want %v", err, context.Canceled)
	}
}

// TestConnLoopHandlerPanic pins panic isolation: a panicking handler
// is logged and closes only its own connection; ErrAbortHandler is not
// logged; the loop keeps serving.
func TestConnLoopHandlerPanic(t *testing.T) {
	var logs syncBuffer
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	loop := newConnLoop(mux, slog.New(slog.NewTextHandler(&logs, nil)))
	go loop.Serve(ln)
	defer loop.Close()
	addr := ln.Addr().String()

	bystander, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	br := bufio.NewReader(bystander)
	roundTrip := func() {
		t.Helper()
		io.WriteString(bystander, rawGet("/ok"))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("bystander connection: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		if string(body) != "ok" {
			t.Fatalf("bystander body %q", body)
		}
	}
	roundTrip()
	for _, path := range []string{"/boom", "/abort"} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		io.WriteString(c, rawGet(path))
		if out, err := io.ReadAll(c); err != nil || len(out) != 0 {
			t.Errorf("%s: got %q, %v; want the connection closed with no answer", path, out, err)
		}
		c.Close()
		roundTrip()
	}
	log := logs.String()
	if !strings.Contains(log, "panic") || !strings.Contains(log, "boom") {
		t.Errorf("panic not logged: %q", log)
	}
	if strings.Contains(log, "abort Handler") {
		t.Errorf("ErrAbortHandler logged: %q", log)
	}
}

// TestConnLoopConcurrentClients drives the loop from several
// keep-alive clients at once, each checking every answer; run it under
// the race detector.
func TestConnLoopConcurrentClients(t *testing.T) {
	srv := newTestServer(t, conformanceMux(t))
	body := windowJSON(t, testServingConfig(), 16)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for i := 0; i < 25; i++ {
				resp, err := client.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 || !strings.Contains(string(got), `"label":"fist"`) {
					errs <- fmt.Errorf("predict %d: %d %s", i, resp.StatusCode, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConnLoopDateCache pins the per-second Date cache: every line
// equals net/http's http.TimeFormat for the same second, a second's
// line is formatted once, and concurrent connections share it safely.
func TestConnLoopDateCache(t *testing.T) {
	loop := newConnLoop(http.NotFoundHandler(), slog.New(slog.NewTextHandler(io.Discard, nil)))
	base := time.Date(2026, 3, 1, 23, 59, 59, 0, time.FixedZone("X", -7*3600))
	want := func(at time.Time) string { return "Date: " + at.UTC().Format(http.TimeFormat) + "\r\n" }
	first := loop.dateHeader(base)
	for _, at := range []time.Time{base, base.Add(999 * time.Millisecond), base.Add(time.Second), base.Add(-time.Second), base.Add(400 * 24 * time.Hour)} {
		if got := loop.dateHeader(at); string(got) != want(at) {
			t.Fatalf("dateHeader(%v) = %q, want %q", at, got, want(at))
		}
	}
	if string(first) != want(base) {
		t.Fatalf("an earlier line changed to %q", first)
	}
	if a, b := loop.dateHeader(base), loop.dateHeader(base.Add(time.Millisecond)); &a[0] != &b[0] {
		t.Fatal("the same second was formatted twice")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				at := base.Add(time.Duration(i%3) * time.Second)
				if got := loop.dateHeader(at); string(got) != want(at) {
					t.Errorf("concurrent dateHeader(%v) = %q", at, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
