package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the HTTP/1.1 server every `pulphd serve` role runs: an
// accept loop and one goroutine per connection that reads a request
// with http.ReadRequest, runs the mux's handler, buffers the whole
// response and sends it with a single Write.
//
// net/http.Server would serve the same mux, but for every request it
// starts a background read that watches for the client hanging up,
// then aborts it with two SetReadDeadline calls and a condition-variable
// wait. At a few µs of handler work per request those steps, and the
// OS-thread wake-ups they cause, were most of the server's CPU. This
// loop keeps net/http.Server's observable HTTP/1.1 behaviour (keep-alive
// and pipelining, Connection: close and HTTP/1.0, body draining,
// Expect: 100-continue, the 400/417/431/501/505 answers, Content-Type
// sniffing, Date, graceful shutdown) and drops one thing: a request's
// context is the loop's lifetime context, cancelled when Shutdown or
// Close returns, not when the client disconnects. The differential
// test in conn_test.go holds the two servers to the same answers.
//
// Also by design: every response is Content-Length framed (a handler's
// Transfer-Encoding is dropped, nothing is chunked, trailers are not
// sent), and the ResponseWriter offers no Flusher or Hijacker.
//
// Every socket read and write goes through newSockIO's reader and
// writer, which on linux are raw non-blocking system calls
// (rawsock_linux.go) so that a request does not wake the runtime's
// sysmon thread.

const (
	// headerReadLimit is net/http's read allowance for a request's
	// header: DefaultMaxHeaderBytes plus one bufio.Reader of slack.
	headerReadLimit = http.DefaultMaxHeaderBytes + 4096
	// maxDrainBytes is the most unread request body drained after the
	// handler to keep a connection; past it the connection closes.
	maxDrainBytes = 256 << 10
	// rstAvoidanceDelay is how long a connection closed with request
	// bytes still unread lingers after its FIN, so the client reads the
	// answer before the close's RST can discard it.
	rstAvoidanceDelay = 500 * time.Millisecond
)

// Connection states. Only the connection's goroutine moves it out of
// new or idle (claim); only Shutdown moves it from there to closed.
const (
	stateNew uint64 = iota
	stateActive
	stateIdle
	stateClosed
)

// connLoop serves one http.Handler over HTTP/1.1.
type connLoop struct {
	handler http.Handler
	log     *slog.Logger
	ctx     context.Context // every request's context
	cancel  context.CancelFunc

	shutdown atomic.Bool
	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}

	date atomic.Pointer[cachedDate]
}

// cachedDate is a formatted "Date: ...\r\n" header line for one second.
type cachedDate struct {
	sec  int64
	line []byte
}

func newConnLoop(h http.Handler, log *slog.Logger) *connLoop {
	ctx, cancel := context.WithCancel(context.Background())
	return &connLoop{handler: h, log: log, ctx: ctx, cancel: cancel, conns: map[*conn]struct{}{}}
}

// ListenAndServe serves on a new TCP listener at addr.
func (l *connLoop) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return l.Serve(ln)
}

// Serve accepts connections on ln until Shutdown or Close, and then
// returns http.ErrServerClosed.
func (l *connLoop) Serve(ln net.Listener) error {
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	if l.shutdown.Load() {
		ln.Close()
		return http.ErrServerClosed
	}
	var backoff time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if l.shutdown.Load() {
				return http.ErrServerClosed
			}
			// A temporary error (out of file descriptors) backs off
			// and retries, as net/http.Server does.
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				l.log.Warn("http: accept", "error", err, "retry_in", backoff)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		c := &conn{loop: l, rwc: rwc}
		// Only a new connection carries a timestamp: closeIdle reads it.
		c.state.Store(uint64(time.Now().Unix())<<8 | stateNew)
		l.mu.Lock()
		if l.shutdown.Load() {
			// Accepted just before the listener closed; Shutdown may
			// already have found no connections left.
			l.mu.Unlock()
			rwc.Close()
			return http.ErrServerClosed
		}
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops accepting, closes idle connections, and waits for the
// rest to finish their request; it returns ctx.Err() if ctx ends first.
// Either way every request context is cancelled on return.
func (l *connLoop) Shutdown(ctx context.Context) error {
	defer l.cancel()
	lnerr := l.stopAccepting()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for !l.closeIdle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return lnerr
}

// Close stops accepting and closes every connection at once.
func (l *connLoop) Close() error {
	defer l.cancel()
	err := l.stopAccepting()
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.conns {
		c.rwc.Close()
	}
	return err
}

func (l *connLoop) stopAccepting() error {
	l.shutdown.Store(true)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln == nil {
		return nil
	}
	if err := l.ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// closeIdle closes every idle connection, and every new one that has
// sent nothing in the 5 s since it was accepted, as net/http.Server
// does; it reports whether no connection is left. The compare-and-swap
// loses to a connection that has just claimed its next request, which
// is then served to the end.
func (l *connLoop) closeIdle() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now().Unix()
	for c := range l.conns {
		v := c.state.Load()
		st, since := v&0xff, int64(v>>8)
		if (st == stateIdle || st == stateNew && since < now-5) && c.state.CompareAndSwap(v, stateClosed) {
			c.rwc.Close()
			delete(l.conns, c)
		}
	}
	return len(l.conns) == 0
}

// dateHeader returns the Date header line for now, formatting it at
// most once per second across all connections.
func (l *connLoop) dateHeader(now time.Time) []byte {
	sec := now.Unix()
	if d := l.date.Load(); d != nil && d.sec == sec {
		return d.line
	}
	line := append(now.UTC().AppendFormat([]byte("Date: "), http.TimeFormat), "\r\n"...)
	l.date.Store(&cachedDate{sec: sec, line: line})
	return line
}

// conn is one client connection; its goroutine owns everything but
// state.
type conn struct {
	loop       *connLoop
	rwc        net.Conn
	sock       io.ReadWriter // rwc's socket I/O, from newSockIO
	state      atomic.Uint64
	remote     string
	r          connReader
	br         *bufio.Reader
	w          response     // reset per request
	out        bytes.Buffer // the response being assembled
	lastMethod string
}

// connReader reads the socket for the bufio.Reader. remain bounds the
// bytes read while a header is parsed; while recording, every byte read
// is kept so the raw header stays inspectable.
type connReader struct {
	src       io.Reader
	remain    int64
	recording bool
	rec       []byte
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.src.Read(p)
	r.remain -= int64(n)
	if r.recording {
		r.rec = append(r.rec, p[:n]...)
	}
	return n, err
}

// claim marks the connection active once a request's first bytes are
// in; false means Shutdown closed it first.
func (c *conn) claim() bool {
	for {
		v := c.state.Load()
		if v&0xff == stateClosed {
			return false
		}
		if c.state.CompareAndSwap(v, stateActive) {
			return true
		}
	}
}

func (c *conn) serve() {
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			c.loop.log.Error("http: panic serving "+c.remote, "panic", fmt.Sprint(p), "stack", string(buf))
		}
		c.rwc.Close()
		c.loop.mu.Lock()
		delete(c.loop.conns, c)
		c.loop.mu.Unlock()
	}()
	if ra := c.rwc.RemoteAddr(); ra != nil {
		c.remote = ra.String()
	}
	c.sock = newSockIO(c.rwc)
	c.r.src, c.r.remain = c.sock, math.MaxInt64
	c.br = bufio.NewReader(&c.r)
	for first := true; ; first = false {
		// Block until the next request starts arriving (net/http waits
		// for 4 bytes between requests); until then the connection is
		// idle and Shutdown may close it.
		peek := 4
		if first {
			peek = 1
		}
		if _, err := c.br.Peek(peek); err != nil || !c.claim() {
			return
		}
		req, ok := c.readRequest()
		if !ok {
			return
		}
		w := &c.w
		w.reset(c, req)
		if expect := req.Header.Get("Expect"); hasToken(expect, "100-continue") {
			w.canContinue = req.ProtoAtLeast(1, 1) && req.ContentLength != 0
			w.body.expectContinue = w.canContinue
		} else if expect != "" {
			w.header.Set("Connection", "close")
			w.WriteHeader(http.StatusExpectationFailed)
			c.finish(w)
			return
		}
		h := c.loop.handler
		if req.RequestURI == "*" && req.Method == "OPTIONS" {
			h = optionsHandler{}
		}
		h.ServeHTTP(w, req)
		if !c.finish(w) {
			if w.closeEarly {
				c.closeWriteAndWait()
			}
			return
		}
		c.state.Store(stateIdle)
		if c.loop.shutdown.Load() {
			return
		}
		if cap(c.r.rec) > 64<<10 {
			c.r.rec = nil
		}
	}
}

// readRequest reads and vets the next request, answering the ones
// net/http.Server refuses before a handler runs; ok is false when the
// connection must close.
func (c *conn) readRequest() (req *http.Request, ok bool) {
	c.r.remain = headerReadLimit
	if c.lastMethod == "POST" {
		// RFC 7230 §3.5: tolerate a stray CRLF after a POST body.
		peek, _ := c.br.Peek(4)
		c.br.Discard(len(peek) - len(bytes.TrimLeft(peek, "\r\n")))
	}
	buffered, _ := c.br.Peek(c.br.Buffered())
	c.r.rec = append(c.r.rec[:0], buffered...)
	c.r.recording = true
	req, err := http.ReadRequest(c.br)
	c.r.recording = false
	const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	if err != nil {
		var ne net.Error
		var oe *net.OpError
		switch {
		case c.r.remain <= 0:
			const msg = "431 Request Header Fields Too Large"
			io.WriteString(c.sock, "HTTP/1.1 "+msg+errorHeaders+msg)
			c.closeWriteAndWait()
		case reflect.TypeOf(err).String() == "*http.unsupportedTEError":
			io.WriteString(c.sock, "HTTP/1.1 501 Not Implemented"+errorHeaders+"Unsupported transfer encoding")
		case err == io.EOF, errors.As(err, &ne) && ne.Timeout(), errors.As(err, &oe) && oe.Op == "read":
			// The client went away; nobody to answer.
		default:
			io.WriteString(c.sock, "HTTP/1.1 400 Bad Request"+errorHeaders+"400 Bad Request")
		}
		return nil, false
	}
	refuse := func(code int, text string) (*http.Request, bool) {
		msg := fmt.Sprintf("%d %s: %s", code, http.StatusText(code), text)
		io.WriteString(c.sock, "HTTP/1.1 "+msg+errorHeaders+msg)
		return nil, false
	}
	if req.ProtoMajor != 1 && !(req.ProtoMajor == 2 && req.ProtoMinor == 0 && req.Method == "PRI" && req.RequestURI == "*") {
		return refuse(http.StatusHTTPVersionNotSupported, "unsupported protocol version")
	}
	c.lastMethod = req.Method
	c.r.remain = math.MaxInt64
	// http.ReadRequest drops the Host field; req.Host is its value
	// unless the target was absolute or the field was empty or absent.
	host, haveHost := req.Host, true
	if host == "" || req.URL.Host != "" || req.Method == "PRI" {
		host, haveHost = rawHost(c.r.rec[:len(c.r.rec)-c.br.Buffered()])
	}
	h2Preface := req.Method == "PRI" && len(req.Header) == 0 && !haveHost && req.URL.Path == "*" && req.Proto == "HTTP/2.0"
	if req.ProtoAtLeast(1, 1) && !haveHost && !h2Preface && req.Method != "CONNECT" {
		return refuse(http.StatusBadRequest, "missing required Host header")
	}
	if haveHost && strings.IndexFunc(host, invalidHostRune) >= 0 {
		return refuse(http.StatusBadRequest, "malformed Host header")
	}
	for k := range req.Header {
		// textproto admits a space before the colon; net/http.Server
		// refuses the name.
		if strings.IndexByte(k, ' ') >= 0 {
			return refuse(http.StatusBadRequest, "invalid header name")
		}
	}
	req = req.WithContext(c.loop.ctx)
	req.RemoteAddr = c.remote
	return req, true
}

// rawHost finds the Host field in a raw request header, folding
// continuation lines as net/textproto does, and reports whether it
// is present at all.
func rawHost(head []byte) (string, bool) {
	lines := bytes.Split(head, []byte("\n"))
	for i := 1; i < len(lines); i++ {
		line := bytes.Trim(bytes.TrimSuffix(lines[i], []byte("\r")), " \t")
		if len(line) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte(":"))
		if !bytes.EqualFold(k, []byte("Host")) {
			continue
		}
		val := string(v)
		for i+1 < len(lines) && len(lines[i+1]) > 0 && (lines[i+1][0] == ' ' || lines[i+1][0] == '\t') {
			i++
			val += " " + string(bytes.Trim(bytes.TrimSuffix(lines[i], []byte("\r")), " \t"))
		}
		return strings.TrimLeft(val, " \t"), true
	}
	return "", false
}

// invalidHostRune reports a byte a Host value may not carry (the
// lenient check net/http.Server applies).
func invalidHostRune(r rune) bool {
	return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' ||
		strings.ContainsRune("!$%&'()*+,-.:;=[]_~", r))
}

// hasToken reports whether the comma/space separated header value v
// holds token, ASCII case-insensitively.
func hasToken(v, token string) bool {
	boundary := func(b byte) bool { return b == ' ' || b == ',' || b == '\t' }
	for sp := 0; sp+len(token) <= len(v); sp++ {
		end := sp + len(token)
		if (sp == 0 || boundary(v[sp-1])) && (end == len(v) || boundary(v[end])) && strings.EqualFold(v[sp:end], token) {
			return true
		}
	}
	return false
}

// finish completes a request: it settles whether the connection stays
// open (draining up to maxDrainBytes of unread body), assembles the
// response and writes it with one Write. It reports whether the
// connection serves another request.
func (c *conn) finish(w *response) bool {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	req, h, code := w.req, w.header, w.status
	isHEAD := req.Method == "HEAD"
	bodyAllowed := code != 204 && code != 304 && (code < 100 || code > 199)
	keepAlives := !c.loop.shutdown.Load()
	h.Del("Transfer-Encoding")
	if w.contentLength == -1 && bodyAllowed && (!isHEAD || len(w.buf) > 0) {
		w.contentLength = int64(len(w.buf))
		w.autoLength = true
	}
	var connection string
	if wants10KeepAlive := req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(req.Header.Get("Connection"), "keep-alive"); wants10KeepAlive && (isHEAD || w.contentLength != -1 || !bodyAllowed) {
		if _, ok := h["Connection"]; !ok {
			connection = "keep-alive"
		}
	} else if !req.ProtoAtLeast(1, 1) || req.Close || hasToken(req.Header.Get("Connection"), "close") {
		w.closeAfter = true
	}
	if h.Get("Connection") == "close" || !keepAlives {
		w.closeAfter = true
	}
	b := &w.body
	if b.expectContinue && !b.sawEOF {
		w.closeAfter = true
	}
	if req.ContentLength != 0 && !w.closeAfter && !b.sawEOF {
		tooBig := req.ContentLength > 0 && req.ContentLength-b.read >= maxDrainBytes
		if !tooBig {
			_, err := io.CopyN(io.Discard, b.src, maxDrainBytes+1)
			switch err {
			case nil:
				tooBig = true
			case io.EOF:
				b.sawEOF = true
			default:
				w.closeAfter = true
			}
		}
		if tooBig {
			w.closeAfter = true
			h.Del("Connection")
			connection = "close"
		}
	}
	if b.sawEOF {
		b.src.Close()
	}
	var ctype string
	if bodyAllowed {
		if _, ok := h["Content-Type"]; !ok && h.Get("Content-Encoding") == "" && len(w.buf) > 0 {
			ctype = http.DetectContentType(w.buf)
		}
	} else {
		h.Del("Content-Length")
		if code == 304 {
			h.Del("Content-Type")
		}
	}
	if w.closeAfter && (!keepAlives || !hasToken(h.Get("Connection"), "close")) {
		h.Del("Connection")
		if req.ProtoAtLeast(1, 1) {
			connection = "close"
		}
	}

	out := &c.out
	out.Reset()
	writeStatusLine(out, req.ProtoAtLeast(1, 1), code)
	h.Write(out)
	if _, ok := h["Date"]; !ok {
		out.Write(c.loop.dateHeader(time.Now()))
	}
	if w.autoLength {
		out.WriteString("Content-Length: ")
		out.Write(strconv.AppendInt(out.AvailableBuffer(), w.contentLength, 10))
		out.WriteString("\r\n")
	}
	for _, kv := range [2][2]string{{"Content-Type: ", ctype}, {"Connection: ", connection}} {
		if kv[1] != "" {
			out.WriteString(kv[0])
			out.WriteString(kv[1])
			out.WriteString("\r\n")
		}
	}
	out.WriteString("\r\n")
	if !isHEAD && bodyAllowed {
		out.Write(w.buf)
	}
	_, err := c.sock.Write(out.Bytes())
	if out.Cap() > 64<<10 {
		c.out = bytes.Buffer{}
	}
	if req.MultipartForm != nil {
		req.MultipartForm.RemoveAll()
	}
	short := !isHEAD && bodyAllowed && w.contentLength != w.written
	reuse := err == nil && !w.closeAfter && !short
	w.closeEarly = !reuse && req.ContentLength != 0 && !b.sawEOF
	return reuse
}

// closeWriteAndWait sends FIN and lingers before the close, for a
// connection that still has request bytes in flight.
func (c *conn) closeWriteAndWait() {
	if tc, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		tc.CloseWrite()
	}
	time.Sleep(rstAvoidanceDelay)
}

func writeStatusLine(out *bytes.Buffer, is11 bool, code int) {
	if is11 {
		out.WriteString("HTTP/1.1 ")
	} else {
		out.WriteString("HTTP/1.0 ")
	}
	if text := http.StatusText(code); text != "" {
		out.Write(strconv.AppendInt(out.AvailableBuffer(), int64(code), 10))
		out.WriteString(" " + text + "\r\n")
	} else {
		fmt.Fprintf(out, "%03d status code %d\r\n", code, code)
	}
}

// response is the buffered http.ResponseWriter.
type response struct {
	c             *conn
	req           *http.Request
	header        http.Header
	body          reqBody
	buf           []byte
	status        int
	wroteHeader   bool
	contentLength int64 // declared by the handler, or -1
	written       int64
	autoLength    bool // contentLength was computed from buf
	canContinue   bool // a body read still sends 100 Continue
	closeAfter    bool
	closeEarly    bool // unread request bytes remain on the wire
}

func (w *response) reset(c *conn, req *http.Request) {
	hdr, buf := w.header, w.buf[:0]
	if hdr == nil {
		hdr = http.Header{}
	}
	clear(hdr)
	if cap(buf) > 64<<10 {
		buf = nil
	}
	*w = response{c: c, req: req, header: hdr, buf: buf, contentLength: -1}
	if req.ContentLength != 0 {
		w.body = reqBody{src: req.Body, w: w}
		req.Body = &w.body
	}
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if code < 101 || code > 199 {
		w.canContinue = false
	}
	if code >= 100 && code <= 199 && code != http.StatusSwitchingProtocols {
		// An informational answer goes out at once, ahead of the final one.
		var out bytes.Buffer
		writeStatusLine(&out, w.req.ProtoAtLeast(1, 1), code)
		w.header.WriteSubset(&out, map[string]bool{"Content-Length": true, "Transfer-Encoding": true})
		out.WriteString("\r\n")
		w.c.sock.Write(out.Bytes())
		return
	}
	w.wroteHeader, w.status = true, code
	if cl := w.header.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.contentLength = v
		} else {
			w.header.Del("Content-Length")
		}
	}
}

func (w *response) Write(p []byte) (int, error) {
	if err := w.grow(len(p)); err != nil || len(p) == 0 {
		return 0, err
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *response) WriteString(s string) (int, error) {
	if err := w.grow(len(s)); err != nil || len(s) == 0 {
		return 0, err
	}
	w.buf = append(w.buf, s...)
	return len(s), nil
}

// grow accounts for an n-byte body write before it is buffered.
func (w *response) grow(n int) error {
	w.canContinue = false
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if n == 0 {
		return nil
	}
	if w.status == 204 || w.status == 304 || w.status >= 100 && w.status <= 199 {
		return http.ErrBodyNotAllowed
	}
	w.written += int64(n)
	if w.contentLength != -1 && w.written > w.contentLength {
		return http.ErrContentLength
	}
	return nil
}

// reqBody is the request body a handler reads: it sends a pending
// 100 Continue on the first read and counts what was read, so finish
// knows what is left on the wire. Close only stops the handler's reads;
// finish drains or abandons the rest.
type reqBody struct {
	src            io.ReadCloser
	w              *response
	read           int64
	sawEOF         bool
	closed         bool
	expectContinue bool
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.w.canContinue {
		b.w.canContinue = false
		io.WriteString(b.w.c.sock, "HTTP/1.1 100 Continue\r\n\r\n")
	}
	n, err := b.src.Read(p)
	b.read += int64(n)
	if err == io.EOF {
		b.sawEOF = true
	}
	return n, err
}

func (b *reqBody) Close() error {
	b.closed = true
	return nil
}

// optionsHandler answers "OPTIONS *" as net/http.Server does.
type optionsHandler struct{}

func (optionsHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Length", "0")
	if r.ContentLength != 0 {
		io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, 4<<10))
	}
}
