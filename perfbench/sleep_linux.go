package main

import (
	"runtime"
	"syscall"
	"time"
)

// The Go runtime's timers wake up to a millisecond late on the reference
// machine, which an open loop would charge to the server. The dispatcher
// instead sleeps in nanosleep on a thread of its own whose kernel timer
// slack is cut to 1 ns, and wakes within tens of microseconds. It does not
// spin: a spinning dispatcher takes CPU from the server it measures.

// prSetTimerSlack is PR_SET_TIMERSLACK from linux/prctl.h.
const prSetTimerSlack = 29

// lockPreciseThread wires the calling goroutine to its thread and cuts the
// thread's timer slack; the caller undoes the wiring with
// runtime.UnlockOSThread.
func lockPreciseThread() {
	runtime.LockOSThread()
	// Best effort: without it the sleep is only less precise.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil sleeps in nanosleep until due.
func sleepUntil(due time.Time) {
	wait := time.Until(due)
	if wait <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(wait))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
