package store

import (
	"reflect"
	"testing"
)

// TestExportImportRoundTrip proves an exported shard reloads into a
// fresh store with identical observable state: journal feed, sequence
// continuity, and prediction log. Flow records are not exported.
func TestExportImportRoundTrip(t *testing.T) {
	src := NewSharded(4)
	for i := uint16(0); i < 64; i++ {
		src.UpsertFlow(key(i), []float64{float64(i), 2, 3}, 10, 20, 1, i%2 == 0, "synflood")
		src.AppendJournal(key(i), []float64{float64(i), 4, 5}, 10, 30, 2, i%2 == 0, "synflood")
	}
	src.AppendPrediction(PredictionRecord{Key: key(1), Label: 1, At: 99, Latency: 5, Votes: []int{1, 0, 1}})
	// Consume part of shard 0's journal so the export carries a
	// non-trivial tail + cursor state.
	_, cur := src.PollShard(0, 0, 5)
	src.TrimShard(0, cur)

	dst := NewSharded(4)
	for i := 0; i < 4; i++ {
		if err := dst.ImportShard(i, src.ExportShard(i)); err != nil {
			t.Fatalf("import shard %d: %v", i, err)
		}
	}
	if err := dst.ImportPredictions(src.Predictions()); err != nil {
		t.Fatalf("import predictions: %v", err)
	}

	if dst.FlowCount() != 0 {
		t.Fatalf("import created %d flow records from an export that carries none", dst.FlowCount())
	}
	if dst.JournalLen() != src.JournalLen() {
		t.Fatalf("journal len %d, want %d", dst.JournalLen(), src.JournalLen())
	}
	if !reflect.DeepEqual(src.Predictions(), dst.Predictions()) {
		t.Error("prediction log diverged")
	}
	// Polling the restored journal from a fresh cursor yields exactly
	// the unconsumed tail, and new writes continue the sequence.
	for sh := 0; sh < 4; sh++ {
		wantRecs, wantCur := src.PollShard(sh, 0, 0)
		gotRecs, gotCur := dst.PollShard(sh, 0, 0)
		if gotCur != wantCur || !reflect.DeepEqual(gotRecs, wantRecs) {
			t.Fatalf("shard %d poll diverged", sh)
		}
	}
	kNew := key(9000)
	dst.AppendJournal(kNew, []float64{7}, 50, 50, 1, false, "")
	sh := dst.ShardFor(kNew)
	_, before := src.PollShard(sh, 0, 0)
	recs, after := dst.PollShard(sh, 0, 0)
	if after != before+1 || len(recs) == 0 || recs[len(recs)-1].Key != kNew {
		t.Errorf("post-restore write broke sequence continuity: cursor %d->%d", before, after)
	}

	// Imports are deep copies: mutating the export must not reach dst.
	ex := src.ExportShard(0)
	fresh := NewSharded(4)
	if err := fresh.ImportShard(0, ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Journal) > 0 {
		before, _ := fresh.PollShard(0, 0, 0)
		ex.Journal[0].Rec.Features[0] = -1
		after, _ := fresh.PollShard(0, 0, 0)
		if !reflect.DeepEqual(before, after) {
			t.Error("import aliased the export's feature slice")
		}
	}

	// Shard-count mismatch fails loud.
	if err := NewSharded(2).ImportShard(3, ex); err == nil {
		t.Error("out-of-range import accepted")
	}
	if err := New().ImportShard(1, ex); err == nil {
		t.Error("DB import of shard 1 accepted")
	}
}
