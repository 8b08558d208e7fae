//go:build !race

package core

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/telemetry"
)

// TestLiveSteadyStateAllocs pins what a row of an existing flow
// allocates between the demux and its logged decision, at the tuned
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
// regrowing it), if a row no journey follows goes back to rendering
// its key while a neighbour's journey is in flight (+10 objects a row),
// or if following one of the 1-in-256 sampled rows allocates again
// (~10 objects a sampled row, +0.04 a row).
func TestLiveSteadyStateAllocs(t *testing.T) {
	cfg := liveConfig(namedDetector("a"), countVoter(4), namedDetector("c"))
	cfg.Shards, cfg.PredictBatch, cfg.QueueCap = 4, 32, 1<<15
	_, objects, bytes := steadyStateAllocs(t, cfg, func(l *Live, i int) { l.ingestAsync(steadyObs(i)) })
	checkSteadyState(t, objects, bytes, 0)
}

// TestLiveSteadyStateAllocsZeroConfig is the same pin at every layout
// knob's zero value — one store, one shard queue of the default
// capacity, whole bursts scored maxScoreBatch rows a call — which is
// what `intddos -live` runs.
func TestLiveSteadyStateAllocsZeroConfig(t *testing.T) {
	cfg := liveConfig(namedDetector("a"), countVoter(4), namedDetector("c"))
	_, objects, bytes := steadyStateAllocs(t, cfg, func(l *Live, i int) { l.ingestAsync(steadyObs(i)) })
	checkSteadyState(t, objects, bytes, 0)
}

// TestHandleReportSteadyStateAllocs is the tuned pin fed the way a
// collector feeds the pipeline: wire bytes through DecodeReport, then
// HandleReport. The decoded report lives in the feeding frame, because
// the queues carry pointer-free observations and HandleReport keeps
// nothing of it, so the budgets are the ingestAsync pin's: a report
// that escapes again (+1 object and 256 bytes a row) fails it. The
// report stays in the frame only while DecodeReport inlines, so a
// coverage run, whose counters may tip it over the inline budget on
// some toolchains, skips this and the dedup pin.
func TestHandleReportSteadyStateAllocs(t *testing.T) {
	skipUnderCover(t)
	cfg := liveConfig(namedDetector("a"), countVoter(4), namedDetector("c"))
	cfg.Shards, cfg.PredictBatch, cfg.QueueCap = 4, 32, 1<<15
	_, objects, bytes := steadyStateAllocs(t, cfg, wireFeed(t))
	checkSteadyState(t, objects, bytes, 0)
}

// TestHandleReportDedupAllocs is that pin with duplicate suppression
// on. The report's source key is a comparable value (its sink switch's
// ID) and the tracker keys a new source by a copy whose transport
// string it clones, so dedup adds no object a report. Building the key
// as a string again (+1 object a report), or the tracker keeping the
// caller's string (which lets the report escape, +1 object and 256
// bytes), fails it.
func TestHandleReportDedupAllocs(t *testing.T) {
	skipUnderCover(t)
	cfg := liveConfig(namedDetector("a"), countVoter(4), namedDetector("c"))
	cfg.Shards, cfg.PredictBatch, cfg.QueueCap = 4, 32, 1<<15
	cfg.DedupWindow = 64
	l, objects, bytes := steadyStateAllocs(t, cfg, wireFeed(t))
	if l.Duplicates.Load()+l.StaleReps.Load() != 0 {
		t.Fatalf("the feed's sequence numbers were not fresh: %s", l.Ledger())
	}
	checkSteadyState(t, objects, bytes, 0)
}

// skipUnderCover skips a pin that needs DecodeReport inlined.
func skipUnderCover(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters may stop DecodeReport inlining")
	}
}

// steadyFlows is how many flows the steady-state pins spread rows over.
const steadyFlows = 64

// steadyObs is the i-th steady-state row as an observation.
func steadyObs(i int) flow.PacketInfo {
	return liveObs(uint16(3000+i%steadyFlows), 700, false, "benign")
}

// wireFeed encodes steadyObs's flows as INT reports from one sink
// switch and returns a feed that stamps each row with the next sequence
// number, decodes it and hands it to HandleReport.
func wireFeed(t *testing.T) func(l *Live, i int) {
	t.Helper()
	wire := make([][]byte, steadyFlows)
	for i := range wire {
		k := steadyObs(i).Key
		r := telemetry.Report{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto,
			Length: 700, Hops: []telemetry.HopMetadata{{SwitchID: 1, QueueDepth: 3, IngressTS: 10, EgressTS: 40}}}
		wire[i] = r.Encode(telemetry.InstAll)
	}
	var seq uint64
	return func(l *Live, i int) {
		seq++
		buf := wire[i%steadyFlows]
		binary.BigEndian.PutUint64(buf[4:12], seq)
		r, err := telemetry.DecodeReport(buf)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		l.HandleReport(r)
	}
}

// steadyStateAllocs warms a started pipeline over cfg to its largest
// bursts, then counts the objects and bytes a row allocates over 20 000
// rows of existing flows, each handed over by send. It returns the
// stopped pipeline, for its counters.
func steadyStateAllocs(t *testing.T, cfg LiveConfig, send func(l *Live, i int)) (l *Live, objects, bytes float64) {
	t.Helper()
	l = startLive(t, cfg)
	defer l.Stop()
	const rows = 20000
	feed := func(n int) {
		for i := 0; i < n; i++ {
			send(l, i)
		}
		settle(t, l, 10*time.Second)
	}
	feed(rows) // every flow exists
	// Two full bursts back to back: the journal arena's bound is one
	// burst lent to the drain's caller plus one filling.
	for range 2 {
		growBursts(t, l, steadyObs)
	}
	// A neighbour's journey, in flight for the whole measurement on
	// every shard: rows whose Seq shares its low bits look it up and
	// miss.
	neighbour := liveObs(2999, 700, false, "benign").Key
	for _, sh := range l.shards {
		sh.run.Lock()
		sh.journeys.Begin(&neighbour, 1, time.Now())
		sh.run.Unlock()
	}

	var before, after runtime.MemStats
	batches := l.met.batchSize.Snapshot().Count
	runtime.GC()
	runtime.ReadMemStats(&before)
	feed(rows)
	runtime.ReadMemStats(&after)
	batches = l.met.batchSize.Snapshot().Count - batches

	objects = float64(after.Mallocs-before.Mallocs) / rows
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / rows
	t.Logf("%d rows, %d batches: %.3f objects, %.1f bytes a row", rows, batches, objects, bytes)
	return l, objects, bytes
}

// checkSteadyState holds a row to the steady-state budgets, plus own
// objects (and up to 16 bytes each) the path under test adds a row.
// 20–40 objects in 20 000 rows measured on the ingestAsync pins: the
// log's chunks. Sampled journeys allocate nothing. An object a batch
// (~630 batches) or ten a sampled row (~780 of them) breaks the
// 1/256th.
func checkSteadyState(t *testing.T, objects, bytes float64, own int) {
	t.Helper()
	if budget := float64(own) + 1.0/256; objects > budget {
		t.Errorf("a row allocated %.4f objects, budget %.4f: %d of its own, none a batch, 1/256th of one a row for log chunks",
			objects, budget, own)
	}
	if budget := 64 + 16*float64(own); bytes > budget {
		t.Errorf("a row allocated %.1f bytes, budget %.0f (56 log record + chunk slack; 54-58 measured, and %d own objects)",
			bytes, budget, own)
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
			l.ingestAsync(pi)
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
