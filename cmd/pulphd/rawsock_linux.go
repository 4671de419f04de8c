package main

import (
	"io"
	"net"
	"os"
	"syscall"
)

// rawSock reads and writes a connection's socket with raw read(2) and
// write(2) calls (sockRead, sockWrite), made inside syscall.RawConn's
// Read and Write.
//
// net.Conn's Read and Write enter the kernel through the runtime's
// entersyscall, which wakes the runtime's sysmon thread whenever it is
// parked; sysmon then polls every 20 µs until every P is idle again. A
// server that sleeps between requests pays that wake-up on nearly
// every request. The socket is non-blocking, so the raw call returns at
// once and needs no hand-off of its P: EAGAIN returns false and netpoll
// parks the goroutine exactly as net.Conn would, deadlines and Close
// act through RawConn, and errors keep net.Conn's shapes. Disk I/O does
// not come here: a file write can block and must hand off its P.
type rawSock struct {
	rc           syscall.RawConn
	network      string
	laddr, raddr net.Addr

	// Read and write state, bound once to the callbacks so a call
	// allocates nothing.
	rbuf   []byte
	rn     int
	rerr   syscall.Errno
	readFn func(fd uintptr) bool

	wbuf    []byte
	wn      int
	werr    syscall.Errno
	writeFn func(fd uintptr) bool
}

// newSockIO returns the reader and writer the connection loop uses for
// c's socket: a rawSock where c exposes its descriptor, else c itself.
func newSockIO(c net.Conn) io.ReadWriter {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return c
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return c
	}
	s := &rawSock{rc: rc, network: "tcp", laddr: c.LocalAddr(), raddr: c.RemoteAddr()}
	if s.laddr != nil {
		s.network = s.laddr.Network()
	}
	s.readFn, s.writeFn = s.readSys, s.writeSys
	return s
}

func (s *rawSock) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.rbuf, s.rn, s.rerr = p, 0, 0
	err := s.rc.Read(s.readFn)
	s.rbuf = nil
	switch {
	case err != nil:
		return 0, s.opError("read", err)
	case s.rerr != 0:
		return 0, s.opError("read", s.rerr)
	case s.rn == 0:
		return 0, io.EOF
	}
	return s.rn, nil
}

func (s *rawSock) readSys(fd uintptr) bool {
	for {
		n, e := sockRead(fd, s.rbuf)
		switch e {
		case 0:
			s.rn = n
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			s.rerr = e
			return true
		}
	}
}

func (s *rawSock) Write(p []byte) (int, error) {
	s.wbuf, s.wn, s.werr = p, 0, 0
	err := s.rc.Write(s.writeFn)
	n := s.wn
	s.wbuf = nil
	switch {
	case err != nil:
		return n, s.opError("write", err)
	case s.werr != 0:
		return n, s.opError("write", s.werr)
	}
	return n, nil
}

// writeSys writes until wbuf is sent, returning false to park on a full
// socket buffer and resuming where it stopped.
func (s *rawSock) writeSys(fd uintptr) bool {
	for s.wn < len(s.wbuf) {
		n, e := sockWrite(fd, s.wbuf[s.wn:])
		switch e {
		case 0:
			s.wn += n
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			s.werr = e
			return true
		}
	}
	return true
}

// opError shapes err as net.Conn's Read or Write reports it: a
// *net.OpError for op around either the poller's error (closed,
// deadline exceeded) or an *os.SyscallError for a failed call.
func (s *rawSock) opError(op string, err error) error {
	if oe, ok := err.(*net.OpError); ok {
		err = oe.Err // RawConn's "raw-read"/"raw-write" wrapper
	}
	if e, ok := err.(syscall.Errno); ok {
		err = os.NewSyscallError(op, e)
	}
	return &net.OpError{Op: op, Net: s.network, Source: s.laddr, Addr: s.raddr, Err: err}
}
