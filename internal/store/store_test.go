package store

import (
	"net/netip"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
)

func key(p uint16) flow.Key {
	return flow.Key{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: p, DstPort: 80, Proto: netsim.TCP,
	}
}

func TestUpsertCreatesAndUpdates(t *testing.T) {
	db := New()
	created := db.UpsertFlow(key(1), []float64{1, 2}, 10, 10, 1, false, "benign")
	if !created {
		t.Fatal("first upsert should create")
	}
	created = db.UpsertFlow(key(1), []float64{3, 4}, 10, 20, 2, false, "benign")
	if created {
		t.Fatal("second upsert should update")
	}
	// The journal holds a snapshot of the record at each write.
	recs, _ := db.PollUpdates(0, 10)
	if len(recs) != 2 {
		t.Fatalf("journaled %d writes, want 2", len(recs))
	}
	rec := recs[1]
	if rec.Version != 2 || rec.Updates != 2 || rec.Features[0] != 3 {
		t.Errorf("record = %+v", rec)
	}
	if rec.RegisteredAt != 10 || rec.UpdatedAt != 20 {
		t.Errorf("times = %v/%v", rec.RegisteredAt, rec.UpdatedAt)
	}
}

// TestFlowReturnsCopy: a flow record's row is the store's own copy —
// neither the caller's slice nor a polled record aliases it.
func TestFlowReturnsCopy(t *testing.T) {
	db := New()
	row := []float64{1}
	db.UpsertFlow(key(1), row, 0, 0, 1, false, "")
	row[0] = 7
	recs, _ := db.PollUpdates(0, 10)
	recs[0].Features[0] = 999
	if again, _ := db.PollUpdates(0, 10); again[0].Features[0] != 1 {
		t.Errorf("journaled row = %v, want [1]: the store exposed its storage", again[0].Features)
	}
}

func TestJournalPolling(t *testing.T) {
	db := New()
	db.UpsertFlow(key(1), []float64{1}, 0, 0, 1, false, "")
	db.UpsertFlow(key(2), []float64{2}, 0, 0, 1, false, "")
	db.UpsertFlow(key(1), []float64{3}, 0, 1, 2, false, "")

	recs, cur := db.PollUpdates(0, 10)
	if len(recs) != 3 {
		t.Fatalf("polled %d, want 3", len(recs))
	}
	if recs[2].Features[0] != 3 {
		t.Errorf("last journal entry features = %v", recs[2].Features)
	}
	// Nothing new: cursor stable, empty result.
	recs2, cur2 := db.PollUpdates(cur, 10)
	if len(recs2) != 0 || cur2 != cur {
		t.Errorf("idle poll returned %d entries, cursor %d→%d", len(recs2), cur, cur2)
	}
	// New write resumes from cursor.
	db.UpsertFlow(key(2), []float64{4}, 0, 2, 2, false, "")
	recs3, _ := db.PollUpdates(cur, 10)
	if len(recs3) != 1 || recs3[0].Features[0] != 4 {
		t.Errorf("incremental poll = %+v", recs3)
	}
}

func TestJournalBatchLimit(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		db.UpsertFlow(key(uint16(i)), []float64{float64(i)}, 0, 0, 1, false, "")
	}
	recs, cur := db.PollUpdates(0, 4)
	if len(recs) != 4 {
		t.Fatalf("batch = %d, want 4", len(recs))
	}
	recs2, _ := db.PollUpdates(cur, 100)
	if len(recs2) != 6 {
		t.Errorf("remainder = %d, want 6", len(recs2))
	}
}

func TestTrimJournal(t *testing.T) {
	db := New()
	for i := 0; i < 5; i++ {
		db.UpsertFlow(key(uint16(i)), []float64{1}, 0, 0, 1, false, "")
	}
	recs, cur := db.PollUpdates(0, 3)
	db.TrimJournal(cur)
	if db.JournalLen() != 2 {
		t.Errorf("journal len after trim = %d, want 2", db.JournalLen())
	}
	// Polling after trim still works from the cursor.
	recs2, _ := db.PollUpdates(cur, 10)
	if len(recs2) != 2 {
		t.Errorf("post-trim poll = %d, want 2", len(recs2))
	}
	_ = recs
}

func TestPredictionLog(t *testing.T) {
	db := New()
	db.AppendPrediction(PredictionRecord{Key: key(1), Label: 1, At: 5, Latency: 2, Truth: true})
	db.AppendPrediction(PredictionRecord{Key: key(2), Label: 0, At: 6, Latency: 1})
	if db.PredictionCount() != 2 {
		t.Fatalf("count = %d", db.PredictionCount())
	}
	preds := logged(db)
	if preds[0].Label != 1 || preds[1].Label != 0 {
		t.Errorf("log = %+v", preds)
	}
	// Copy semantics.
	preds[0].Label = 99
	if logged(db)[0].Label == 99 {
		t.Error("Predictions exposed internal storage")
	}
}

func TestDeleteFlow(t *testing.T) {
	db := New()
	db.UpsertFlow(key(1), []float64{1}, 0, 0, 1, false, "")
	db.DeleteFlow(key(1))
	// Re-upsert after delete is a create again.
	if !db.UpsertFlow(key(1), []float64{1}, 0, 0, 1, false, "") {
		t.Error("re-create after delete not flagged as created")
	}
}

// TestInstrument: the store registers what the live pipeline still
// feeds — the prediction log — and no journal series: the live
// pipeline keeps its rows in its shards, so a journal gauge would read
// zero forever.
func TestInstrument(t *testing.T) {
	db := New()
	reg := obs.NewRegistry()
	db.Instrument(reg)
	db.UpsertFlow(key(1), []float64{1}, 0, 0, 1, false, "")
	db.AppendPrediction(PredictionRecord{Key: key(1), Label: 1})
	db.AppendPrediction(PredictionRecord{Key: key(1)})

	s := reg.Snapshot()
	if got := s.Gauges["intddos_store_predictions_logged"]; got != 2 {
		t.Errorf("predictions gauge = %v, want 2", got)
	}
	if _, ok := s.Gauges["intddos_store_journal_length"]; ok {
		t.Error("journal gauge registered")
	}
	if _, ok := s.Histograms["intddos_store_upsert_seconds"]; ok {
		t.Error("upsert histogram registered")
	}
}
