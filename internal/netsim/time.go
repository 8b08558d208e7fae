// Package netsim implements a deterministic discrete-event network
// simulator: a virtual clock, packets, links with bandwidth and
// propagation delay, and output-queued switches that record per-hop
// ingress/egress timestamps and queue occupancy.
//
// The simulator stands in for the AmLight testbed hardware (Edgecore
// Wedge DCS800 Tofino switch, 100 Gbps hosts) used in the paper. It
// produces the exact per-hop quantities the paper's INT deployment
// exports — ingress time, egress time, and queue depth at dequeue —
// from a real queueing process, so the telemetry, feature-extraction,
// and detection layers above it exercise the same code paths they
// would against hardware.
package netsim

import "fmt"

// Time is a virtual simulation time in nanoseconds since the start of
// the simulation. It is 64-bit and never wraps; the 32-bit wrapping
// timestamps that INT hardware exports are modelled by Timestamp32.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Timestamp32 is the 32-bit nanosecond timestamp exported by INT
// hardware. It wraps every 2^32 ns ≈ 4.295 s, which the paper (§V)
// identifies as a challenge for computing inter-arrival times.
type Timestamp32 uint32

// Wrap32 truncates a full simulation time to the 32-bit hardware
// timestamp domain.
func Wrap32(t Time) Timestamp32 { return Timestamp32(uint64(t) & 0xFFFFFFFF) }

// WrapDiff returns the elapsed nanoseconds from earlier to later,
// assuming the true gap is less than one wrap period (~4.295 s). This
// is the wrap-aware subtraction the paper's discussion of the 32-bit
// timestamp limitation calls for: a naive `later - earlier` on the
// unsigned values is wrong whenever the counter wrapped in between.
func WrapDiff(earlier, later Timestamp32) Time {
	return Time(uint32(later) - uint32(earlier))
}

// NaiveDiff returns the signed difference without wrap handling. It is
// retained only for the ablation benchmark contrasting wrap-aware and
// naive inter-arrival computation.
func NaiveDiff(earlier, later Timestamp32) Time {
	return Time(int64(later) - int64(earlier))
}
