package flow

import (
	"reflect"
	"testing"
)

// TestSlideVote pins the §IV-C4 smoothing rule: the last n raw votes,
// a strict majority, ties benign.
func TestSlideVote(t *testing.T) {
	var w Window
	for i, step := range []struct {
		raw, label int
		window     []int
	}{
		{1, 1, []int{1}},
		{0, 0, []int{1, 0}}, // a tie resolves benign
		{1, 1, []int{1, 0, 1}},
		{1, 1, []int{0, 1, 1}}, // trimmed to the last three
		{0, 1, []int{1, 1, 0}},
		{0, 0, []int{1, 0, 0}},
	} {
		label := w.Slide(step.raw, 3)
		if got := w.AppendTo(nil); label != step.label || !reflect.DeepEqual(got, step.window) {
			t.Errorf("step %d: window=%v label=%d, want %v/%d", i, got, label, step.window, step.label)
		}
	}
	if got := testing.AllocsPerRun(1000, func() { w.Slide(1, 3) }); got != 0 {
		t.Errorf("Slide allocates %.0f objects a vote, want 0", got)
	}
	// A window restored longer than n (the knob shrank) is cut to the last n.
	long, err := WindowOf([]int{1, 1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if label := long.Slide(0, 3); label != 0 || !reflect.DeepEqual(long.AppendTo(nil), []int{0, 0, 0}) {
		t.Errorf("over-long window slid to %v/%d, want [0 0 0]/0", long.AppendTo(nil), label)
	}
	// The widest window slides like any other.
	var full Window
	for i := 0; i < 2*MaxVoteWindow; i++ {
		full.Slide(i%2, MaxVoteWindow)
	}
	if full.Len() != MaxVoteWindow || full.Slide(0, MaxVoteWindow) != 0 { // 32 of 64: a tie
		t.Errorf("a full %d-vote window of alternating votes: len %d", MaxVoteWindow, full.Len())
	}
}

// TestWindowOfRejects: a restored window holds only 0/1 votes, at most
// MaxVoteWindow of them.
func TestWindowOfRejects(t *testing.T) {
	for _, votes := range [][]int{{0, 7}, {-1}, make([]int, MaxVoteWindow+1)} {
		if _, err := WindowOf(votes); err == nil {
			t.Errorf("WindowOf(%v) accepted", votes)
		}
	}
	w, err := WindowOf([]int{1, 0, 1})
	if err != nil || !reflect.DeepEqual(w.AppendTo(nil), []int{1, 0, 1}) {
		t.Errorf("WindowOf round trip: %v, %v", w.AppendTo(nil), err)
	}
}
