//go:build !race

package main

import (
	"syscall"
	"unsafe"
)

// sockRead and sockWrite are rawSock's system calls: raw read(2) and
// write(2), which do not pass through the runtime's entersyscall.
func sockRead(fd uintptr, p []byte) (int, syscall.Errno) {
	n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&p[0])), uintptr(len(p)))
	return int(n), e
}

func sockWrite(fd uintptr, p []byte) (int, syscall.Errno) {
	n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&p[0])), uintptr(len(p)))
	return int(n), e
}
