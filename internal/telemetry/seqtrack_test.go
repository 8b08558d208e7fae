package telemetry

import (
	"fmt"
	"net/netip"
	"testing"

	"github.com/amlight/intddos/internal/netsim"
)

// transport keys a test source by its transport address alone.
func transport(addr string) SourceKey { return SourceKey{Transport: addr} }

func TestSeqTrackerInOrder(t *testing.T) {
	tr := NewSeqTracker(8, 0)
	for seq := uint64(1); seq <= 100; seq++ {
		res := tr.Observe(transport("a"), seq)
		if res.Verdict != SeqAccept || res.Gaps != 0 {
			t.Fatalf("seq %d: %+v, want clean accept", seq, res)
		}
	}
}

func TestSeqTrackerDuplicateAndReorder(t *testing.T) {
	tr := NewSeqTracker(8, 0)
	tr.Observe(transport("a"), 1)
	tr.Observe(transport("a"), 2)
	if res := tr.Observe(transport("a"), 2); res.Verdict != SeqDuplicate {
		t.Errorf("repeat of newest = %v, want duplicate", res.Verdict)
	}
	res := tr.Observe(transport("a"), 5) // 3, 4 provisionally lost
	if res.Verdict != SeqAccept || res.Gaps != 2 {
		t.Errorf("jump = %+v, want accept with 2 gaps", res)
	}
	res = tr.Observe(transport("a"), 3) // late arrival heals one
	if res.Verdict != SeqReordered || !res.Healed {
		t.Errorf("late 3 = %+v, want reordered+healed", res)
	}
	if res := tr.Observe(transport("a"), 3); res.Verdict != SeqDuplicate {
		t.Errorf("repeat of reordered = %v, want duplicate", res.Verdict)
	}
	if res := tr.Observe(transport("a"), 4); res.Verdict != SeqReordered || !res.Healed {
		t.Errorf("late 4 = %+v, want reordered+healed", res)
	}
}

func TestSeqTrackerStaleBeyondWindow(t *testing.T) {
	tr := NewSeqTracker(8, 0)
	tr.Observe(transport("a"), 1)
	tr.Observe(transport("a"), 50) // within reset jump; 48 provisional gaps
	if res := tr.Observe(transport("a"), 42); res.Verdict != SeqStale {
		t.Errorf("seq 42 at highest 50, window 8 = %v, want stale", res.Verdict)
	}
	if res := tr.Observe(transport("a"), 43); res.Verdict != SeqReordered {
		t.Errorf("seq 43 (window edge) = %v, want reordered", res.Verdict)
	}
}

func TestSeqTrackerPerSourceIndependence(t *testing.T) {
	tr := NewSeqTracker(8, 0)
	// Two interleaved in-order streams: no gaps, no reorders.
	for seq := uint64(1); seq <= 50; seq++ {
		for _, src := range []string{"a", "b"} {
			res := tr.Observe(transport(src), seq)
			if res.Verdict != SeqAccept || res.Gaps != 0 {
				t.Fatalf("%s/%d: %+v, want clean accept", src, seq, res)
			}
		}
	}
	if len(tr.sources) != 2 {
		t.Errorf("sources = %d, want 2", len(tr.sources))
	}
}

func TestSeqTrackerStreamReset(t *testing.T) {
	tr := NewSeqTracker(8, 0)
	tr.Observe(transport("a"), 100000)
	res := tr.Observe(transport("a"), 1) // agent restart: seq re-zeroed
	if res.Verdict != SeqStale {
		t.Fatalf("restart low seq = %v, want stale (backward)", res.Verdict)
	}
	// Forward jumps beyond the reset threshold re-seed instead of
	// inferring a million losses.
	res = tr.Observe(transport("a"), 200000)
	if res.Verdict != SeqAccept || res.Gaps != 0 {
		t.Fatalf("huge forward jump = %+v, want reset accept with 0 gaps", res)
	}
	if tr.resets != 1 {
		t.Errorf("resets = %d, want 1", tr.resets)
	}
}

func TestSeqTrackerBoundedSources(t *testing.T) {
	tr := NewSeqTracker(8, 16)
	for i := 0; i < 100; i++ {
		tr.Observe(transport(fmt.Sprintf("src-%d", i)), 1)
	}
	if len(tr.sources) > 16 {
		t.Errorf("sources = %d, want <= 16", len(tr.sources))
	}
	if tr.evictions != 100-16 {
		t.Errorf("evictions = %d, want %d", tr.evictions, 100-16)
	}
	// The most recently active source survives eviction pressure.
	res := tr.Observe(transport("src-99"), 2)
	if res.Verdict != SeqAccept || res.Gaps != 0 {
		t.Errorf("hot source lost its state: %+v", res)
	}
}

// TestCollectorInterleavedAgentsNoFalseGaps is the regression test
// for the shared-lastSeq bug: two agents exporting independent
// sequence streams into one collector must produce zero inferred
// gaps, where the old single-lastSeq accounting inflated SeqGaps on
// every interleaving.
func TestCollectorInterleavedAgentsNoFalseGaps(t *testing.T) {
	eng := netsim.NewEngine()
	c := NewCollector(eng)
	var accepted int
	c.OnReport = func(*Report, netsim.Time) { accepted++ }
	mk := func(sw uint32, seq uint64) *netsim.Packet {
		r := &Report{
			Seq: seq,
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
			Hops: []HopMetadata{{SwitchID: sw}},
		}
		return &netsim.Packet{Payload: r.Encode(InstAll)}
	}
	// Interleave two in-order exporter streams, switch IDs 1 and 2.
	const n = 200
	for seq := uint64(1); seq <= n; seq++ {
		c.Receive(mk(1, seq))
		c.Receive(mk(2, seq))
	}
	if c.SeqGaps != 0 {
		t.Errorf("SeqGaps = %d on two clean interleaved streams, want 0", c.SeqGaps)
	}
	if c.Duplicates != 0 || c.Stale != 0 || c.Reordered != 0 {
		t.Errorf("dup/stale/reordered = %d/%d/%d, want 0/0/0", c.Duplicates, c.Stale, c.Reordered)
	}
	if ledger := c.Received - c.Duplicates - c.Stale; accepted != 2*n || ledger != 2*n {
		t.Errorf("accepted %d (ledger %d), want %d", accepted, ledger, 2*n)
	}
	if len(c.seqs.sources) != 2 {
		t.Errorf("tracked sources = %d, want 2", len(c.seqs.sources))
	}
}

func TestCollectorSuppressesDuplicatesAndStale(t *testing.T) {
	eng := netsim.NewEngine()
	c := NewCollector(eng)
	c.ReorderWindow = 4
	var accepted []uint64
	c.OnReport = func(r *Report, _ netsim.Time) { accepted = append(accepted, r.Seq) }
	mk := func(seq uint64) *netsim.Packet {
		r := &Report{Seq: seq, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
			Hops: []HopMetadata{{SwitchID: 7}}}
		return &netsim.Packet{Payload: r.Encode(InstAll)}
	}
	for _, seq := range []uint64{1, 2, 2, 10, 9, 9, 3, 10} {
		c.Receive(mk(seq))
	}
	// 2(dup), 3(stale: 10-3 >= 4), second 9 (dup), second 10 (dup).
	if c.Duplicates != 3 {
		t.Errorf("Duplicates = %d, want 3", c.Duplicates)
	}
	if c.Stale != 1 {
		t.Errorf("Stale = %d, want 1", c.Stale)
	}
	if c.Reordered != 1 || c.Healed != 1 {
		t.Errorf("Reordered/Healed = %d/%d, want 1/1", c.Reordered, c.Healed)
	}
	want := []uint64{1, 2, 10, 9}
	if len(accepted) != len(want) {
		t.Fatalf("accepted %v, want %v", accepted, want)
	}
	for i := range want {
		if accepted[i] != want[i] {
			t.Fatalf("accepted %v, want %v", accepted, want)
		}
	}
	if ledger := c.Received - c.Duplicates - c.Stale; ledger != len(want) {
		t.Errorf("accepted = %d, want %d", ledger, len(want))
	}
}
