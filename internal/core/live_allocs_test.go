//go:build !race

package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/obs"
)

// TestLiveSteadyStateAllocs pins what a row of an existing flow
// allocates between IngestAsync and its logged decision, at the tuned
// layout (Shards 4, PredictBatch 32). A row keeps one thing it
// allocates — the store's journal clone of its feature vector — and
// shares two: its batch's vote slab (plus, for these stub models, one
// label slice a model) and its 80 bytes of a log chunk. The budget
// fails if the feature vector goes back to a fresh slice per row
// (+1 object a row), if a second log of decisions comes back (hundreds
// of bytes a row regrowing it), or if a row no journey follows goes
// back to rendering its key while a neighbour's journey is in flight
// (+10 objects a row).
func TestLiveSteadyStateAllocs(t *testing.T) {
	cfg := liveConfig(namedDetector("a"), countVoter(4), namedDetector("c"))
	cfg.Shards, cfg.PredictBatch, cfg.QueueCap = 4, 32, 1<<15
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	defer l.Stop()
	const flows, rows = 64, 20000
	feed := func(n int) {
		for i := 0; i < n; i++ {
			l.IngestAsync(liveObs(uint16(3000+i%flows), 700, false, "benign"))
		}
		settle(t, l, 10*time.Second)
	}
	feed(rows) // every flow exists
	growBursts(t, l, func(i int) flow.PacketInfo { return liveObs(uint16(3000+i%flows), 700, false, "benign") })
	// A neighbour's journey, in flight for the whole measurement.
	l.Journeys().Begin(obs.JourneyID{Flow: 1, Seq: 1}, "neighbour", "ingest", time.Now())

	var before, after runtime.MemStats
	batches := l.met.batchSize.Count()
	runtime.GC()
	runtime.ReadMemStats(&before)
	feed(rows)
	runtime.ReadMemStats(&after)
	batches = l.met.batchSize.Count() - batches

	perBatch := uint64(1 + len(cfg.Models))
	objects := after.Mallocs - before.Mallocs
	t.Logf("%d rows, %d batches: %.2f objects, %d bytes a row", rows, batches,
		float64(objects)/rows, (after.TotalAlloc-before.TotalAlloc)/rows)
	if budget := rows + batches*perBatch + rows/4; objects > budget {
		t.Errorf("%d rows in %d batches allocated %d objects (%.2f a row), budget %d: one a row, %d a batch, a quarter of a row for the 1-in-256 journeys",
			rows, batches, objects, float64(objects)/rows, budget, perBatch)
	}
	if bytes := (after.TotalAlloc - before.TotalAlloc) / rows; bytes > 360 {
		t.Errorf("a row allocated %d bytes, budget 360 (128 journal clone + 80 log record + ~50 of its batch's slabs + sampling)", bytes)
	}
}

// growBursts runs every shard of a started pipeline through the largest
// pass its queue allows — the row it holds plus a full queue — so the
// burst-sized buffers (the journal, the drain buffer) reach their bound
// before a measurement. row(i) yields observations of existing flows.
func growBursts(t *testing.T, l *Live, row func(i int) flow.PacketInfo) {
	t.Helper()
	for s := range l.ckptMu {
		l.ckptMu[s].Lock()
	}
	// Each shard takes its first row and parks behind the barrier; then
	// its queue fills without blocking the feed.
	for s, sh := range l.shards {
		held := false
		for i := 0; len(sh.queue) < cap(sh.queue); i++ {
			pi := row(i)
			if pi.Key.Shard(l.nShards) != s {
				continue
			}
			l.IngestAsync(pi)
			if !held {
				if !waitFor(t, 5*time.Second, func() bool { return len(sh.queue) == 0 }) {
					t.Fatalf("shard %d never took its first row", s)
				}
				held = true
			}
		}
	}
	for s := range l.ckptMu {
		l.ckptMu[s].Unlock()
	}
	settle(t, l, 10*time.Second)
}
