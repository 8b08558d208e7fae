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
// layout (Shards 4, PredictBatch 32). A row allocates nothing of its
// own — its feature vector is built in the shard's scratch and copied
// into the journal's arena — and neither does its batch: the models
// write their labels into the shard's scoring scratch, whose vote and
// exit slabs are reused batch to batch. What a row shares is its 56
// bytes of a log chunk. The budget fails if the journal goes back to a
// fresh clone a row (+1 object a row), if the feature vector goes back
// to a fresh slice per row (+1), if the vote slab or a model's label
// slice goes back to a fresh allocation a batch (+1 object a batch), if
// a second log of decisions comes back (hundreds of bytes a row
// regrowing it), or if a row no journey follows goes back to rendering
// its key while a neighbour's journey is in flight (+10 objects a row).
func TestLiveSteadyStateAllocs(t *testing.T) {
	cfg := liveConfig(namedDetector("a"), countVoter(4), namedDetector("c"))
	cfg.Shards, cfg.PredictBatch, cfg.QueueCap = 4, 32, 1<<15
	steadyStateAllocs(t, cfg)
}

// TestLiveSteadyStateAllocsZeroConfig is the same pin at every layout
// knob's zero value — one store, one shard queue of the default
// capacity, whole bursts scored maxScoreBatch rows a call — which is
// what `intddos -live` runs.
func TestLiveSteadyStateAllocsZeroConfig(t *testing.T) {
	steadyStateAllocs(t, liveConfig(namedDetector("a"), countVoter(4), namedDetector("c")))
}

// steadyStateAllocs warms a started pipeline over cfg to its largest
// bursts, then counts what 20 000 rows of existing flows allocate.
func steadyStateAllocs(t *testing.T, cfg LiveConfig) {
	t.Helper()
	l := startLive(t, cfg)
	defer l.Stop()
	const flows, rows = 64, 20000
	feed := func(n int) {
		for i := 0; i < n; i++ {
			l.IngestAsync(liveObs(uint16(3000+i%flows), 700, false, "benign"))
		}
		settle(t, l, 10*time.Second)
	}
	feed(rows) // every flow exists
	// Two full bursts back to back: the journal arena's bound is one
	// burst lent to the drain's caller plus one filling.
	for range 2 {
		growBursts(t, l, func(i int) flow.PacketInfo { return liveObs(uint16(3000+i%flows), 700, false, "benign") })
	}
	// A neighbour's journey, in flight for the whole measurement.
	l.journeys.Begin(obs.JourneyID{Flow: 1, Seq: 1}, "neighbour", "ingest", time.Now())

	var before, after runtime.MemStats
	batches := l.met.batchSize.Snapshot().Count
	runtime.GC()
	runtime.ReadMemStats(&before)
	feed(rows)
	runtime.ReadMemStats(&after)
	batches = l.met.batchSize.Snapshot().Count - batches

	objects := after.Mallocs - before.Mallocs
	t.Logf("%d rows, %d batches: %d objects, %d bytes a row", rows, batches,
		objects, (after.TotalAlloc-before.TotalAlloc)/rows)
	// ~890 objects measured: the log's chunks and the 1-in-256
	// journeys. One object a batch more (~630 batches) breaks the budget.
	if budget := uint64(rows / 16); objects > budget {
		t.Errorf("%d rows in %d batches allocated %d objects (%.3f a row), budget %d: none a row or a batch, a sixteenth of one a row for log chunks and sampled journeys",
			rows, batches, objects, float64(objects)/rows, budget)
	}
	if bytes := (after.TotalAlloc - before.TotalAlloc) / rows; bytes > 72 {
		t.Errorf("a row allocated %d bytes, budget 72 (56 log record + sampling; 57-60 measured)", bytes)
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
