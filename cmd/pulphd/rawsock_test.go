package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// tcpPair returns both ends of a fresh loopback TCP connection, closed
// when the test ends.
func tcpPair(t *testing.T) (srv, cli *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return s.(*net.TCPConn), c.(*net.TCPConn)
}

// wantOpError fails unless err is a *net.OpError for op whose cause
// is not another *net.OpError, as net.Conn reports it.
func wantOpError(t *testing.T, err error, op string) {
	t.Helper()
	oe, ok := err.(*net.OpError)
	if !ok || oe.Op != op {
		t.Fatalf("error %v (%T), want a *net.OpError with Op %q", err, err, op)
	}
	if _, nested := oe.Err.(*net.OpError); nested {
		t.Fatalf("error %v wraps another *net.OpError", err)
	}
}

// TestConnLoopRawIO holds the connection loop's socket reader and
// writer (newSockIO) to net.Conn's behaviour on real loopback TCP; every
// case also runs on a plain net.Conn, the reference.
func TestConnLoopRawIO(t *testing.T) {
	for _, side := range []struct {
		name string
		wrap func(net.Conn) io.ReadWriter
	}{
		{"sockIO", newSockIO},
		{"net.Conn", func(c net.Conn) io.ReadWriter { return c }},
	} {
		t.Run(side.name, func(t *testing.T) {
			t.Run("large write to slow reader", func(t *testing.T) {
				srv, cli := tcpPair(t)
				sock := side.wrap(srv)
				if _, isConn := sock.(net.Conn); runtime.GOOS == "linux" && side.name == "sockIO" && isConn {
					t.Fatal("newSockIO fell back to net.Conn on linux")
				}
				// Small socket buffers make the write hit EAGAIN and park
				// many times before the reader catches up.
				srv.SetWriteBuffer(32 << 10)
				cli.SetReadBuffer(32 << 10)
				payload := make([]byte, 4<<20+123)
				for i := range payload {
					payload[i] = byte(i % 251)
				}
				type result struct {
					n   int
					err error
				}
				done := make(chan result, 1)
				go func() {
					n, err := sock.Write(payload)
					done <- result{n, err}
				}()
				time.Sleep(20 * time.Millisecond) // let the writer fill the buffers
				got := make([]byte, 0, len(payload))
				buf := make([]byte, 16<<10)
				for len(got) < len(payload) {
					n, err := cli.Read(buf)
					if err != nil {
						t.Fatalf("client read after %d bytes: %v", len(got), err)
					}
					got = append(got, buf[:n]...)
				}
				if r := <-done; r.n != len(payload) || r.err != nil {
					t.Fatalf("Write = %d, %v; want %d, nil", r.n, r.err, len(payload))
				}
				if !bytes.Equal(got, payload) {
					t.Fatal("payload arrived corrupted")
				}
			})

			t.Run("peer close is EOF", func(t *testing.T) {
				srv, cli := tcpPair(t)
				sock := side.wrap(srv)
				cli.Write([]byte("last"))
				cli.Close()
				buf := make([]byte, 16)
				if n, err := io.ReadFull(sock, buf[:4]); n != 4 || err != nil || string(buf[:4]) != "last" {
					t.Fatalf("read = %q, %v; want \"last\"", buf[:n], err)
				}
				if n, err := sock.Read(buf); n != 0 || err != io.EOF {
					t.Fatalf("read after peer close = %d, %v; want 0, io.EOF", n, err)
				}
			})

			t.Run("close unblocks a parked read", func(t *testing.T) {
				srv, _ := tcpPair(t)
				sock := side.wrap(srv)
				// The read normally parks before the close lands; either
				// order must give the same error.
				time.AfterFunc(20*time.Millisecond, func() { srv.Close() })
				_, err := sock.Read(make([]byte, 16))
				if !errors.Is(err, net.ErrClosed) {
					t.Fatalf("read on closed conn: %v, want net.ErrClosed", err)
				}
				wantOpError(t, err, "read")
				_, err = sock.Write([]byte("x"))
				if !errors.Is(err, net.ErrClosed) {
					t.Fatalf("write on closed conn: %v, want net.ErrClosed", err)
				}
				wantOpError(t, err, "write")
			})

			t.Run("reset peer", func(t *testing.T) {
				srv, cli := tcpPair(t)
				sock := side.wrap(srv)
				cli.SetLinger(0) // Close sends RST
				cli.Close()
				var se *os.SyscallError
				_, err := sock.Read(make([]byte, 16))
				if !errors.As(err, &se) || !errors.Is(err, syscall.ECONNRESET) {
					t.Fatalf("read from reset peer: %v (%T), want an *os.SyscallError for ECONNRESET", err, err)
				}
				wantOpError(t, err, "read")
				_, err = sock.Write([]byte("x"))
				if !errors.As(err, &se) {
					t.Fatalf("write to reset peer: %v (%T), want an *os.SyscallError", err, err)
				}
				wantOpError(t, err, "write")
			})

			t.Run("read deadline", func(t *testing.T) {
				srv, cli := tcpPair(t)
				sock := side.wrap(srv)
				srv.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
				buf := make([]byte, 16)
				_, err := sock.Read(buf)
				var ne net.Error
				if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("read past deadline: %v, want os.ErrDeadlineExceeded", err)
				}
				wantOpError(t, err, "read")
				srv.SetReadDeadline(time.Time{})
				cli.Write([]byte("y"))
				if n, err := sock.Read(buf); n != 1 || err != nil {
					t.Fatalf("read after clearing the deadline = %d, %v", n, err)
				}
			})
		})
	}
}
