//go:build !linux

package main

import (
	"io"
	"net"
)

// newSockIO returns the reader and writer the connection loop uses for
// c's socket. Only linux issues raw socket calls (rawsock_linux.go);
// elsewhere net.Conn's own Read and Write serve.
func newSockIO(c net.Conn) io.ReadWriter { return c }
