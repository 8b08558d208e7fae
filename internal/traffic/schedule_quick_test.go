package traffic

import (
	"testing"
	"testing/quick"

	"github.com/amlight/intddos/internal/netsim"
)

// TestPaperSchedulePropertyDisjoint: at any compression and floor the
// schedule stays strictly ordered and non-overlapping, so ground
// truth is always unambiguous.
func TestPaperSchedulePropertyDisjoint(t *testing.T) {
	f := func(dayMs uint16, minEpMs uint8) bool {
		day := netsim.Time(int64(dayMs)+10) * netsim.Millisecond
		minEp := netsim.Time(minEpMs) * netsim.Millisecond
		s := PaperSchedule(day, minEp)
		if len(s) != 11 {
			return false
		}
		for i, e := range s {
			if e.End <= e.Start {
				return false
			}
			if minEp > 0 && (e.End-e.Start) < minEp {
				return false
			}
			if i > 0 && e.Start < s[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPaperSchedulePropertyActiveAtConsistent: every episode reports
// itself active at its own midpoint.
func TestPaperSchedulePropertyActiveAtConsistent(t *testing.T) {
	f := func(dayMs uint16) bool {
		day := netsim.Time(int64(dayMs)+10) * netsim.Millisecond
		s := PaperSchedule(day, netsim.Millisecond)
		for _, e := range s {
			mid := e.Start + (e.End-e.Start)/2
			if s.ActiveAt(mid) != e.Type {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
