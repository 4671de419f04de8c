//go:build race

package main

import "syscall"

// The race detector learns the ordering a socket carries between two
// goroutines of one process (a test's client and the server) from
// annotations inside syscall.Read and syscall.Write. Raw calls carry
// none, so race builds make the annotated calls; rawSock's parking,
// retries and error shapes are the same either way.

func sockRead(fd uintptr, p []byte) (int, syscall.Errno) {
	n, err := syscall.Read(int(fd), p)
	if err != nil {
		return 0, err.(syscall.Errno)
	}
	return n, 0
}

func sockWrite(fd uintptr, p []byte) (int, syscall.Errno) {
	n, err := syscall.Write(int(fd), p)
	if err != nil {
		return 0, err.(syscall.Errno)
	}
	return n, 0
}
