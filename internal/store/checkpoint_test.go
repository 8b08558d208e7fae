package store

import (
	"reflect"
	"testing"
)

// TestExportImportRoundTrip proves an exported shard reloads into a
// fresh store with an identical prediction log. The export is the log
// alone: neither flow records nor the journal travel with it.
func TestExportImportRoundTrip(t *testing.T) {
	src := NewSharded(4)
	for i := uint16(0); i < 64; i++ {
		src.UpsertFlow(key(i), []float64{float64(i), 2, 3}, 10, 20, 1, i%2 == 0, "synflood")
		src.AppendPrediction(PredictionRecord{Key: key(i), Label: int(i % 2), At: 99, Latency: 5, Votes: []int{1, 0, 1}})
	}

	dst := NewSharded(4)
	var ex ShardExport
	for i := 0; i < 4; i++ {
		ex = src.ExportShardInto(i, ShardExport{})
		if len(ex.Journal) != 0 || ex.Seq != 0 {
			t.Fatalf("shard %d export carries %d journal entries, seq %d: the store exports its log alone", i, len(ex.Journal), ex.Seq)
		}
		if err := dst.ImportShard(i, ex); err != nil {
			t.Fatalf("import shard %d: %v", i, err)
		}
	}
	if dst.JournalLen() != 0 {
		t.Fatalf("import left %d journal entries from an export that carries none", dst.JournalLen())
	}
	if !reflect.DeepEqual(logged(src), logged(dst)) {
		t.Error("prediction log diverged")
	}

	// Imports are deep copies: mutating the export must not reach dst.
	before := logged(dst)
	ex.Preds[0].Votes[0] = 0
	ex.Preds[0].Label = 7
	if !reflect.DeepEqual(before, logged(dst)) {
		t.Error("import aliased the export")
	}

	// Shard-count mismatch fails loud.
	if err := NewSharded(2).ImportShard(3, ex); err == nil {
		t.Error("out-of-range import accepted")
	}
	if err := New().ImportShard(1, ex); err == nil {
		t.Error("DB import of shard 1 accepted")
	}
}
