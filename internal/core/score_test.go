package core

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
)

// gateModel is a stage-0 cascade stub whose attack probability is the
// row's second feature, so one batch can mix confident exits with
// fall-throughs.
type gateModel struct{ stubModel }

func (g gateModel) Proba(x []float64) float64 { return x[1] }

func (g gateModel) PredictProbaBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = g.Proba(x)
	}
	return out
}

func scoreKey(sport uint16) flow.Key {
	return flow.Key{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: sport, DstPort: 80, Proto: netsim.TCP,
	}
}

// TestScore drives the scorer directly. The ensemble is three size
// thresholds (an attack is a packet below 100 / 200 / 300 bytes), so a
// row's first feature picks its vote vector and its second the stage-0
// model's confidence. The stub ensemble seam drops the members listed
// in absent, the way Live's scoreBatch reports an unhealthy member.
func TestScore(t *testing.T) {
	models := []ml.Classifier{
		stubModel{name: "a", thresh: 100},
		stubModel{name: "b", thresh: 200},
		stubModel{name: "c", thresh: 300},
	}
	const heavy, light = 1, 2 // source ports of the sketch-suspicious and an ordinary flow
	full := func(raw int, votes ...int) verdict { return verdict{raw: raw, votes: votes, decided: true} }
	exit := func(label int) verdict { return verdict{raw: label, stage: 1, votes: []int{label}, decided: true} }
	fourSizes := [][]float64{{50, 0.99}, {150, 0.99}, {250, 0.01}, {350, 0.01}}
	fourFull := []verdict{full(1, 1, 1, 1), full(1, 0, 1, 1), full(0, 0, 0, 1), full(0, 0, 0, 0)}

	cases := []struct {
		name      string
		triage    bool
		threshold float64
		absent    map[int]bool
		rows      [][]float64
		keys      []uint16
		want      []verdict
		navail    int
		calls     int // ensemble invocations
	}{
		{name: "triage off", rows: fourSizes, keys: []uint16{light, light, light, light},
			want: fourFull, navail: 3, calls: 1},
		{name: "triage inert", triage: true, threshold: 0, rows: fourSizes, keys: []uint16{light, heavy, light, heavy},
			want: fourFull, navail: 3, calls: 1},
		{name: "triage on, sketch veto falls through", triage: true, threshold: 0.9,
			rows:   [][]float64{{50, 0.99}, {350, 0.01}, {350, 0.01}, {150, 0.6}, {350, 0.99}},
			keys:   []uint16{light, heavy, light, light, heavy},
			want:   []verdict{exit(1), full(0, 0, 0, 0), exit(0), full(1, 0, 1, 1), exit(1)},
			navail: 3, calls: 1},
		{name: "one member absent", absent: map[int]bool{1: true},
			rows: fourSizes[:3], keys: []uint16{light, light, light},
			want:   []verdict{full(1, 1, VoteAbsent, 1), full(0, 0, VoteAbsent, 1), full(0, 0, VoteAbsent, 1)},
			navail: 2, calls: 1},
		{name: "all members absent", triage: true, threshold: 0.9, absent: map[int]bool{0: true, 1: true, 2: true},
			rows:   [][]float64{{50, 0.99}, {150, 0.6}, {350, 0.01}},
			keys:   []uint16{light, light, light},
			want:   []verdict{exit(1), {votes: []int{VoteAbsent, VoteAbsent, VoteAbsent}}, exit(0)},
			navail: 0, calls: 1},
		{name: "empty fall-through set", triage: true, threshold: 0.9,
			rows: [][]float64{{50, 0.99}, {350, 0.01}}, keys: []uint16{light, light},
			want: []verdict{exit(1), exit(0)}, navail: 0, calls: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := newScorer(models, identityScaler(2), 0, 2, tc.triage, tc.threshold, gateModel{})
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			sc.ensemble = func(s *batchScratch, X [][]float64) ([][]int, []int, int) {
				calls++
				votes, ones := s.vs.Rows(len(X), len(models))
				navail := 0
				for mi, m := range models {
					if tc.absent[mi] {
						markAbsent(votes, mi)
						continue
					}
					navail++
					for i, x := range X {
						votes[i][mi] = m.Predict(x)
						ones[i] += votes[i][mi]
					}
				}
				return votes, ones, navail
			}
			// One heavy hitter among enough distinct flows to keep the
			// key entropy healthy: only the heavy flow is suspicious.
			for i := 0; i < 2*triageMinSample; i++ {
				sc.observe(scoreKey(heavy))
				sc.observe(scoreKey(uint16(1000 + i)))
				sc.observe(scoreKey(uint16(5000 + i)))
			}
			keys := make([]flow.Key, len(tc.keys))
			for i, p := range tc.keys {
				keys[i] = scoreKey(p)
			}
			var s batchScratch
			for pass := 0; pass < 2; pass++ { // the second pass runs on warm scratch
				calls = 0
				got, navail := sc.score(tc.rows, keys, &s)
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("pass %d: verdicts\n got %+v\nwant %+v", pass, got, tc.want)
				}
				if navail != tc.navail || calls != tc.calls {
					t.Errorf("pass %d: navail=%d calls=%d, want %d/%d", pass, navail, calls, tc.navail, tc.calls)
				}
			}
			// A warm scratch holds every buffer a verdict points into: the
			// only allocation left is the stage-0 stub's probability slice.
			stage0 := 0
			if tc.triage {
				stage0 = 1
			}
			if n := testing.AllocsPerRun(20, func() { sc.score(tc.rows, keys, &s) }); n > float64(stage0) {
				t.Errorf("warm score allocated %v objects a call, want at most %d", n, stage0)
			}
		})
	}
}
