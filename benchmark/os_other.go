//go:build !unix

package main

import (
	"errors"
	"time"
)

func sleep(d time.Duration) { time.Sleep(d) }

func processCPU() (time.Duration, error) {
	return 0, errors.New("cpu_us_per_row needs getrusage, which this platform lacks")
}
