package experiment

import (
	"testing"

	"github.com/amlight/intddos/internal/traffic"
)

// TestSoakSmoke is the `make soak-smoke` gate: a bounded soak at tiny
// scale — impaired wire, scrambled feed, internal faults — that must
// keep both accounting ledgers closed and degrade accuracy gracefully.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}
	r, err := RunSoak(SoakConfig{Scale: traffic.ScaleTiny, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatSoak(r))
	if !r.Ledger.ReportsClosed() {
		t.Errorf("report ledger open: %s", r.Ledger)
	}
	if !r.Ledger.Closed() {
		t.Errorf("pipeline ledger open: %s", r.Ledger)
	}
	// The adversity demonstrably fired: the wire lost and duplicated,
	// the feed scrambles produced suppressions.
	if ls := r.LinkStats["agent->collector"]; ls.Lost == 0 || !ls.Closed() {
		t.Errorf("wire impairment did not fire or its ledger is open: %+v", ls)
	}
	if r.Ledger.Duplicates == 0 {
		t.Error("no duplicate suppressions over a duplicating wire + scrambled feed")
	}
	if r.Ledger.Stale == 0 {
		t.Error("no stale rejections despite deep stragglers in the feed")
	}
	if r.CleanAccuracy <= 0 || r.CleanAccuracy > 1 || r.SoakAccuracy <= 0 || r.SoakAccuracy > 1 {
		t.Fatalf("accuracies out of range: clean=%v soak=%v", r.CleanAccuracy, r.SoakAccuracy)
	}
	if r.DeltaPP < -10 {
		t.Errorf("soak accuracy fell %.2f pp below clean, bound is -10", -r.DeltaPP)
	}
}
