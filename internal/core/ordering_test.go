package core

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
)

// TestLiveShardAffinityOrdering is the sharding correctness contract:
// with many shards and concurrent callers, every flow's decisions must
// still arrive in per-flow journal order, because a flow maps to one
// shard and one shard's passes are serialized. Cross-flow order is
// unspecified; per-flow order is what the 2-of-3 vote window needs.
func TestLiveShardAffinityOrdering(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.Shards = 8
	l := newLive(t, cfg)
	if l.nShards != 8 {
		t.Fatalf("nShards = %d", l.nShards)
	}

	perFlow := make(map[flow.Key][]int)
	var mu sync.Mutex
	l.OnDecision = func(d Decision) {
		mu.Lock()
		perFlow[d.Key] = append(perFlow[d.Key], d.Seq)
		mu.Unlock()
	}
	l.Start()
	defer l.Stop()

	// 32 flows spread over the shards, 20 updates each, ingested from
	// concurrent goroutines (one per flow, so each flow's updates are
	// ordered at the source like a real packet stream).
	const flows, updates = 32, 20
	var wg sync.WaitGroup
	for f := 0; f < flows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			key := flow.Key{
				Src: netip.AddrFrom4([4]byte{10, 1, 0, byte(f)}), Dst: netip.MustParseAddr("10.0.0.2"),
				SrcPort: uint16(4000 + f), DstPort: 80, Proto: netsim.TCP,
			}
			for i := 0; i < updates; i++ {
				l.Ingest(flow.PacketInfo{Key: key, Length: 40, HasTelemetry: true,
					Label: true, AttackType: "synflood"})
			}
		}(f)
	}
	wg.Wait()
	want := flows * updates
	if !waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, seqs := range perFlow {
			n += len(seqs)
		}
		return n == want
	}) {
		t.Fatalf("decisions did not drain (QueueCap default should not shed %d items)", want)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(perFlow) != flows {
		t.Fatalf("saw %d flows, want %d", len(perFlow), flows)
	}
	for key, seqs := range perFlow {
		if len(seqs) != updates {
			t.Errorf("%s: %d decisions, want %d", key, len(seqs), updates)
		}
		for i, seq := range seqs {
			if seq != i {
				t.Fatalf("%s: decision order violated at %d: got seqs %v", key, i, seqs)
			}
		}
	}
}

// TestLiveShardedEndToEnd re-runs the basic pipeline shape at
// Shards=4 to make sure the sharded configuration reaches the same
// decisions as the legacy layout on the same input.
func TestLiveShardedEndToEnd(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.Shards = 4
	l := startLive(t, cfg)
	defer l.Stop()
	for i := 0; i < 5; i++ {
		l.Ingest(liveObs(7, 40, true, "synflood"))
	}
	if !waitFor(t, 2*time.Second, func() bool { return len(l.Decisions()) == 5 }) {
		t.Fatalf("decisions = %d, want 5", len(l.Decisions()))
	}
	for i, d := range l.Decisions() {
		if d.Label != 1 || !d.Correct() {
			t.Errorf("decision %d = %+v", i, d)
		}
	}
	snap := l.MetricsSnapshot()
	if got := snap.Gauges["intddos_pipeline_shards"]; got != 4 {
		t.Errorf("pipeline shards gauge = %v", got)
	}
	if got := snap.Gauges["intddos_store_shards"]; got != 4 {
		t.Errorf("store shards gauge = %v", got)
	}
}
