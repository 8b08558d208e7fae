package main

import (
	"runtime"
	"time"
)

// tick is the generator's mean period: it sleeps to each tick, sends that
// tick's rows back to back and sleeps again. It never spins, so it takes
// no CPU from the program beyond the rows it hands over.
const tick = time.Millisecond

// lateLimit is how long after its due instant a row may be handed over
// before it counts as late: one default PollInterval, after which the
// row has missed the poll it was due for. The generator shares the Go
// runtime with the program, and while the collector marks the heap a
// few percent of rows are handed over 1–5 ms late on this box; that
// wait is part of each row's age, as it would be for a collector loop
// in the same process. lateShareLimit is the share of late rows, in the
// median 1 s window, above which the run is invalid: the generator, not
// the program, was what ran slow. Sound runs here stayed under 0.01.
const (
	lateLimit      = 5 * time.Millisecond
	lateShareLimit = 0.05
)

// dueAfter is how long after the schedule's start tick t is due: t whole
// ticks plus a fraction of one that walks the golden-ratio sequence, so
// that over any few hundred ticks the due instants fall evenly across
// the millisecond. On an exact 1 ms grid every row would keep one fixed
// sub-millisecond phase to the program's 5 ms poll tickers for the whole
// run, and that phase — chance, and different every run — moved the
// median age by up to 1 ms.
func dueAfter(t int) time.Duration {
	const golden = 0.6180339887498949
	frac := float64(t) * golden
	frac -= float64(int64(frac))
	return time.Duration(t)*tick + time.Duration(frac*float64(tick))
}

// pace is the open-loop generator. From one goroutine it hands rows
// [0, rows) to send, perTick of them at each tick after t0, whether or
// not the program keeps up. Every row of a tick is due at the tick's
// instant; late[row] is how long after that instant the row was handed
// over. everySecond(n) runs at the tick that starts second n, before
// that tick's rows.
func pace(t0 time.Time, perTick, rows int, late []time.Duration, send func(row int), everySecond func(sec int)) {
	runtime.LockOSThread() // sleep needs the thread
	defer runtime.UnlockOSThread()
	ticksPerSecond := int(time.Second / tick)
	for t := 0; t*perTick < rows; t++ {
		due := t0.Add(dueAfter(t))
		for d := time.Until(due); d > 0; d = time.Until(due) {
			sleep(d)
		}
		if t%ticksPerSecond == 0 {
			everySecond(t / ticksPerSecond)
		}
		for row := t * perTick; row < (t+1)*perTick && row < rows; row++ {
			late[row] = time.Since(due)
			send(row)
		}
	}
}

// dueUnixNano is the wall-clock instant row was due, in the clock
// Decision.At is stamped with.
func dueUnixNano(t0 time.Time, perTick, row int) int64 {
	return t0.UnixNano() + int64(dueAfter(row/perTick))
}

// spinWork is the fixed register-only loop the calibration times: the
// same work before and after each workload, so that a change in the
// machine's speed can be told apart from a change in the program.
const spinWork = 50_000_000

var spinSink uint64

func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinWork; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(start)
}
