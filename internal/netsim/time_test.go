package netsim

import (
	"testing"
	"testing/quick"
)

// wrapPeriod is the period after which a Timestamp32 repeats.
const wrapPeriod Time = 1 << 32

func TestWrap32Truncates(t *testing.T) {
	cases := []struct {
		in   Time
		want Timestamp32
	}{
		{0, 0},
		{1, 1},
		{wrapPeriod - 1, 0xFFFFFFFF},
		{wrapPeriod, 0},
		{wrapPeriod + 7, 7},
		{3*wrapPeriod + 123, 123},
	}
	for _, c := range cases {
		if got := Wrap32(c.in); got != c.want {
			t.Errorf("Wrap32(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestWrapDiffAcrossWrap(t *testing.T) {
	// earlier near the top of the counter, later just past the wrap
	earlier := Timestamp32(0xFFFFFF00)
	later := Timestamp32(0x00000100)
	if got := WrapDiff(earlier, later); got != 0x200 {
		t.Errorf("WrapDiff across wrap = %d, want %d", got, 0x200)
	}
	// NaiveDiff must get this wrong (negative), motivating the ablation.
	if got := NaiveDiff(earlier, later); got >= 0 {
		t.Errorf("NaiveDiff across wrap = %d, want negative", got)
	}
}

func TestWrapDiffPropertyMatchesTrueGap(t *testing.T) {
	// Property: for any start time and any true gap < wrapPeriod, the
	// wrap-aware difference of the truncated timestamps recovers the gap.
	f := func(start uint32, gap uint32) bool {
		t0 := Time(start)
		d := Time(gap) // gap ∈ [0, 2^32) < wrapPeriod by construction
		t1 := t0 + d
		return WrapDiff(Wrap32(t0), Wrap32(t1)) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapDiffPropertyShiftInvariant(t *testing.T) {
	// Property: WrapDiff depends only on the gap, not the absolute epoch.
	f := func(start uint64, shift uint32, gap uint32) bool {
		t0 := Time(start % (1 << 40))
		t1 := t0 + Time(gap)
		s0, s1 := t0+Time(shift), t1+Time(shift)
		return WrapDiff(Wrap32(t0), Wrap32(t1)) == WrapDiff(Wrap32(s0), Wrap32(s1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeSecondsMillis(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
}
