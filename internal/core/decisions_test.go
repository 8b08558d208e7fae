package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/store"
)

// flowSeq names one decision: a flow and its per-flow index.
type flowSeq struct {
	key flow.Key
	seq int
}

// gaplessPerFlow checks that each flow's decisions read 0,1,2,… in
// order (or from, from+1, … for a restored pipeline).
func gaplessPerFlow(ds []Decision, from int) error {
	next := make(map[flow.Key]int)
	for _, d := range ds {
		want, seen := next[d.Key]
		if !seen {
			want = from
		}
		if d.Seq != want {
			return fmt.Errorf("flow %s: decision Seq %d where %d was due", d.Key, d.Seq, want)
		}
		next[d.Key] = want + 1
	}
	return nil
}

// TestDecisionsAreTheLog: Live keeps one record per decision, in the
// store's packed log, and Decisions reads it back. What comes back must
// be what OnDecision was handed — every field, votes and cascade stage
// included — in an order that keeps each flow's. OnDecision lends Votes
// for the call only, so the callback clones them to keep them.
func TestDecisionsAreTheLog(t *testing.T) {
	for name, triage := range map[string]bool{"ensemble": false, "cascade-exit": true} {
		t.Run(name, func(t *testing.T) {
			cfg := liveConfig(namedDetector("a"), countVoter(4), namedDetector("c"))
			cfg.Shards, cfg.PredictBatch = 4, 32
			if triage { // saturated stage 0: every row exits with its one vote
				cfg.Triage, cfg.TriageThreshold = true, 0.9
				cfg.TriageModel = probaModel{stubModel: attackDetector(), conf: 1}
			}
			l := newLive(t, cfg)
			var mu sync.Mutex
			handed := make(map[flowSeq]Decision)
			l.OnDecision = func(d Decision) {
				d.Votes = slices.Clone(d.Votes)
				mu.Lock()
				handed[flowSeq{d.Key, d.Seq}] = d
				mu.Unlock()
			}
			const nFlows, updates = 40, 8
			l.Start()
			feedRange(l, nFlows, 0, updates)
			settle(t, l, 5*time.Second)
			l.Stop()

			got := l.Decisions()
			if len(got) != nFlows*updates || len(got) != len(handed) ||
				len(got) != l.DecisionCount() || len(got) != l.DB.PredictionCount() {
				t.Fatalf("Decisions holds %d, OnDecision saw %d, DecisionCount %d, log %d, fed %d",
					len(got), len(handed), l.DecisionCount(), l.DB.PredictionCount(), nFlows*updates)
			}
			if err := gaplessPerFlow(got, 0); err != nil {
				t.Fatal(err)
			}
			for _, d := range got {
				want := handed[flowSeq{d.Key, d.Seq}]
				if !reflect.DeepEqual(d, want) {
					t.Fatalf("decision read back from the log differs from the one handed to OnDecision:\n got %+v\nwant %+v", d, want)
				}
				wantVotes, wantStage := 3, 0
				if triage {
					wantVotes, wantStage = 1, 1
				}
				if len(d.Votes) != wantVotes || d.Stage != wantStage {
					t.Fatalf("decision read back as votes=%v stage=%d, want %d votes at stage %d", d.Votes, d.Stage, wantVotes, wantStage)
				}
			}
		})
	}
}

// TestDecisionsStartAtTheRestoreMark: a restored pipeline's log holds
// the crashed process's history, its Decisions only its own.
func TestDecisionsStartAtTheRestoreMark(t *testing.T) {
	const nFlows, cut, total = 30, 3, 7
	dir := t.TempDir()
	b := startLive(t, ckptConfig(dir))
	feedRange(b, nFlows, 0, cut)
	settle(t, b, 5*time.Second)
	if _, _, err := b.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	b.Stop()

	c := newLive(t, ckptConfig(dir))
	restored := c.Restore().Predictions
	if restored != nFlows*cut {
		t.Fatalf("restored %d predictions, want %d", restored, nFlows*cut)
	}
	if n := len(c.Decisions()); n != 0 || c.DecisionCount() != 0 {
		t.Fatalf("freshly restored pipeline claims %d decisions (count %d) of its own", n, c.DecisionCount())
	}
	c.Start()
	feedRange(c, nFlows, cut, total)
	settle(t, c, 5*time.Second)
	c.Stop()

	ds := c.Decisions()
	if want := c.DB.PredictionCount() - restored; len(ds) != want || len(ds) != nFlows*(total-cut) || len(ds) != c.DecisionCount() {
		t.Fatalf("Decisions holds %d, want PredictionCount %d - restored %d = %d (DecisionCount %d)",
			len(ds), c.DB.PredictionCount(), restored, want, c.DecisionCount())
	}
	if err := gaplessPerFlow(ds, cut); err != nil {
		t.Fatal(err)
	}
	// Per-flow Seq and Stage are not persisted: restored history reads
	// zero for both, this process's records carry theirs.
	for i, p := range c.DB.Predictions() {
		if i < restored && (p.FlowSeq != 0 || p.Stage != 0) {
			t.Fatalf("restored prediction %d surfaces provenance flowSeq=%d stage=%d", i, p.FlowSeq, p.Stage)
		}
		if i >= restored && p.FlowSeq < cut {
			t.Fatalf("post-restore prediction %d has flowSeq %d, want >= %d", i, p.FlowSeq, cut)
		}
	}
}

// TestDecisionsReadWhileAppending: producers on every shard, shards
// appending to the per-shard logs, and a reader materialising
// Decisions and writing checkpoints all the while. Every reading is a
// consistent cut — gapless per flow, never behind DecisionCount — and
// -race watches the lock-free reads of the packed chunks.
func TestDecisionsReadWhileAppending(t *testing.T) {
	cfg := ckptConfig(t.TempDir())
	cfg.QueueCap = 1 << 15 // nothing sheds: a gap would be a torn read
	l := startLive(t, cfg)
	const producers, flowsEach, updates = 4, 16, 60
	var feeding sync.WaitGroup
	for p := 0; p < producers; p++ {
		feeding.Add(1)
		go func(p int) {
			defer feeding.Done()
			for u := 0; u < updates; u++ {
				for f := 0; f < flowsEach; f++ {
					l.HandleReport(chaosReport(uint16(5000+p*flowsEach+f), 40, true, "synflood"))
				}
			}
		}(p)
	}
	var stop atomic.Bool
	readerDone := make(chan struct{})
	reads := 0
	go func() {
		defer close(readerDone)
		for !stop.Load() {
			floor := l.DecisionCount()
			ds := l.Decisions()
			if len(ds) < floor {
				t.Errorf("Decisions holds %d, DecisionCount said %d before it was read", len(ds), floor)
				return
			}
			if err := gaplessPerFlow(ds, 0); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := l.WriteCheckpoint(); err != nil {
				t.Errorf("checkpoint while appending: %v", err)
				return
			}
			reads++
		}
	}()
	feeding.Wait()
	settle(t, l, 10*time.Second)
	stop.Store(true)
	<-readerDone
	l.Stop()
	if t.Failed() {
		return
	}
	if got, want := len(l.Decisions()), producers*flowsEach*updates; got != want {
		t.Fatalf("%d decisions after %d concurrent reads, want %d (%s)", got, reads, want, l.Ledger())
	}
	assertAccounting(t, l)
}

// TestScorerRejectsBundleWiderThanVoteWord: the packed decision record
// holds store.MaxVotes votes; a wider ensemble is refused at
// construction by both drivers, never logged truncated.
func TestScorerRejectsBundleWiderThanVoteWord(t *testing.T) {
	models := make([]ml.Classifier, store.MaxVotes+1)
	for i := range models {
		models[i] = attackDetector()
	}
	if _, err := NewLive(liveConfig(models...)); err == nil {
		t.Errorf("NewLive accepted %d models", len(models))
	}
	if _, err := New(nil, testConfig(models...)); err == nil {
		t.Errorf("New accepted %d models", len(models))
	}
	l, err := NewLive(liveConfig(models[:store.MaxVotes]...))
	if err != nil {
		t.Fatalf("NewLive refused %d models: %v", store.MaxVotes, err)
	}
	l.Start()
	l.Ingest(liveObs(1, 40, true, "synflood"))
	settle(t, l, 5*time.Second)
	l.Stop()
	if ds := l.Decisions(); len(ds) != 1 || len(ds[0].Votes) != store.MaxVotes {
		t.Fatalf("widest ensemble's decision read back as %+v", ds)
	}
}
