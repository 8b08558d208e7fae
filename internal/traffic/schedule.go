// Package traffic generates the synthetic workloads the experiments
// run on: a benign web-server workload statistically shaped like the
// AmLight subnet capture the paper used, and the four simulated
// attack types of Table I (SYN scan, UDP scan, SYN flood, SlowLoris),
// laid out on the paper's episode schedule compressed onto a virtual
// timeline.
//
// All generators are deterministic under a seed and emit trace
// records, so the same workload can be replayed through the INT and
// sFlow pipelines or written to disk.
package traffic

import (
	"fmt"

	"github.com/amlight/intddos/internal/netsim"
)

// Attack type names, used as trace labels and Table VI row keys.
const (
	Benign    = "benign"
	SYNScan   = "synscan"
	UDPScan   = "udpscan"
	SYNFlood  = "synflood"
	SlowLoris = "slowloris"
)

// AttackTypes lists the attack workloads in Table I order.
var AttackTypes = []string{SYNScan, UDPScan, SYNFlood, SlowLoris}

// Episode is one attack window on the virtual timeline.
type Episode struct {
	Type  string
	Start netsim.Time
	End   netsim.Time
}

// String renders the episode like a Table I row.
func (e Episode) String() string {
	return fmt.Sprintf("%-9s %v - %v", e.Type, e.Start, e.End)
}

// Schedule is an ordered list of attack episodes.
type Schedule []Episode

// ActiveAt returns the attack type running at t, or "" when the
// network is clean.
func (s Schedule) ActiveAt(t netsim.Time) string {
	for _, e := range s {
		if t >= e.Start && t < e.End {
			return e.Type
		}
	}
	return ""
}

// tableIEntry is one row of the paper's Table I in capture-day
// coordinates: day index (June 6 = 0) and seconds-of-day boundaries.
type tableIEntry struct {
	typ        string
	day        int
	start, end int // seconds of day
}

// secondsOfDay converts hh:mm:ss to seconds.
func secondsOfDay(h, m, s int) int { return h*3600 + m*60 + s }

// tableI is the paper's simulated attack schedule. June 10 is day 4,
// June 11 day 5 of the June 6–11 capture. The final UDP scan ends at
// the paper's "16:59:99", which we read as 16:59:59.
var tableI = []tableIEntry{
	{SYNScan, 4, secondsOfDay(13, 24, 2), secondsOfDay(13, 57, 3)},
	{SYNScan, 4, secondsOfDay(16, 30, 51), secondsOfDay(16, 35, 20)},
	{UDPScan, 4, secondsOfDay(16, 36, 20), secondsOfDay(16, 53, 0)},
	{UDPScan, 4, secondsOfDay(16, 56, 45), secondsOfDay(16, 59, 59)},
	{SYNFlood, 4, secondsOfDay(20, 48, 1), secondsOfDay(20, 49, 1)},
	{SYNFlood, 4, secondsOfDay(20, 52, 11), secondsOfDay(20, 54, 12)},
	{SYNFlood, 5, secondsOfDay(20, 13, 31), secondsOfDay(20, 15, 31)},
	{SYNFlood, 5, secondsOfDay(20, 16, 41), secondsOfDay(20, 17, 1)},
	{SYNFlood, 5, secondsOfDay(20, 17, 17), secondsOfDay(20, 17, 37)},
	{SlowLoris, 5, secondsOfDay(20, 27, 37), secondsOfDay(20, 28, 37)},
	{SlowLoris, 5, secondsOfDay(20, 29, 12), secondsOfDay(20, 31, 12)},
}

// realDay is the length of a capture day in real seconds.
const realDay = 86400

// PaperSchedule maps Table I onto a compressed virtual timeline where
// each capture day lasts dayLen. Episode boundaries keep their
// positions proportionally, but each episode is also given a floor of
// minEpisode so very short attacks (the 20 s floods) survive
// aggressive compression with enough packets to matter.
// Flooring can make neighbouring episodes collide, so starts are
// pushed forward as needed to keep the schedule disjoint — ground
// truth stays unambiguous at any compression.
func PaperSchedule(dayLen, minEpisode netsim.Time) Schedule {
	sched := make(Schedule, 0, len(tableI))
	var prevEnd netsim.Time
	for _, e := range tableI {
		start := netsim.Time(e.day)*dayLen + scaleSeconds(e.start, dayLen)
		end := netsim.Time(e.day)*dayLen + scaleSeconds(e.end, dayLen)
		if gap := minEpisode / 4; start < prevEnd+gap {
			shift := prevEnd + gap - start
			start += shift
			end += shift
		}
		if end-start < minEpisode {
			end = start + minEpisode
		}
		prevEnd = end
		sched = append(sched, Episode{Type: e.typ, Start: start, End: end})
	}
	return sched
}

// scaleSeconds maps a seconds-of-day offset onto the compressed day.
func scaleSeconds(sec int, dayLen netsim.Time) netsim.Time {
	return netsim.Time(int64(sec) * int64(dayLen) / realDay)
}
