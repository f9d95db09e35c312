package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// solveClock times a solve in CPU time. A solve that runs on one goroutine
// (a single bsolo solve) is timed by the CPU time of its OS thread, which
// the clock locks the goroutine to; a portfolio race, which runs on
// several threads, by the CPU time of the whole process. On a shared host
// CPU time does not grow with the time the host takes away from this
// machine, and for a single solve it reads what the wall clock reads on an
// idle machine. The paper's Table 1 reports CPU time as well.
type solveClock struct{ thread bool }

// Linux clock ids of clock_gettime(2).
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// newSolveClock returns a thread clock when thread is set, a process clock
// otherwise. Release it when the solve ends.
func newSolveClock(thread bool) solveClock {
	if thread {
		runtime.LockOSThread()
	}
	return solveClock{thread: thread}
}

func (c solveClock) now() time.Duration {
	id := clockProcessCPUTime
	if c.thread {
		id = clockThreadCPUTime
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux kernel Go supports
	}
	return time.Duration(ts.Nano())
}

func (c solveClock) release() {
	if c.thread {
		runtime.UnlockOSThread()
	}
}
