package flow

import (
	"fmt"
	"math/bits"
)

// MaxVoteWindow is the longest vote window a flow record holds: one bit
// a vote, in one word.
const MaxVoteWindow = 64

// Window is a flow's vote window (§IV-C4): its most recent raw
// predictions, oldest in bit 0, and how many it holds.
type Window struct {
	bits uint64
	n    uint8
}

// Slide appends raw (0 or 1) to the window, keeps the last n
// (1 ≤ n ≤ MaxVoteWindow) and returns the strict majority of what it
// holds, ties resolving benign.
func (w *Window) Slide(raw, n int) int {
	if drop := int(w.n) + 1 - n; drop > 0 {
		w.bits >>= uint(drop)
		w.n -= uint8(drop)
	}
	if raw != 0 {
		w.bits |= 1 << w.n
	}
	w.n++
	if 2*bits.OnesCount64(w.bits) > int(w.n) {
		return 1
	}
	return 0
}

// Len returns how many votes the window holds.
func (w Window) Len() int { return int(w.n) }

// AppendTo appends the window's votes to dst, oldest first.
func (w Window) AppendTo(dst []int) []int {
	for i := uint8(0); i < w.n; i++ {
		dst = append(dst, int(w.bits>>i&1))
	}
	return dst
}

// WindowOf builds a window from votes, oldest first. It refuses a vote
// other than 0 or 1 and more than MaxVoteWindow votes: a window holding
// either would skew every majority taken over it.
func WindowOf(votes []int) (Window, error) {
	if len(votes) > MaxVoteWindow {
		return Window{}, fmt.Errorf("%d votes, a window holds %d", len(votes), MaxVoteWindow)
	}
	var w Window
	for i, v := range votes {
		switch v {
		case 0:
		case 1:
			w.bits |= 1 << i
		default:
			return Window{}, fmt.Errorf("vote %d is not 0 or 1", v)
		}
	}
	w.n = uint8(len(votes))
	return w, nil
}
