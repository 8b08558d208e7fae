//go:build unix

package main

import (
	"syscall"
	"time"
)

// sleep blocks the calling thread for d in the kernel. time.Sleep would
// wake through the runtime's network poller, whose timeout is rounded up
// to a whole millisecond: on an idle process that is a median 0.5 ms
// late, and the lateness shrinks as the program gets busier. The caller
// holds its OS thread (runtime.LockOSThread).
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the caller sleeps again or runs a little late
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
