package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/checkpoint"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/store"
)

// The tests in this file pin the failure modes a push design adds over
// a polled one: with no tick behind it, a record that is taken and not
// decided stays where it is forever. Each test ends in silence —
// no later report arrives to cover for a missed pass.

// TestPushLoneReportDecided sends one report into an idle, started
// pipeline down each ingest path and expects its decision with nothing
// behind it: the lost-wake-up case.
func TestPushLoneReportDecided(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := liveConfig(attackDetector())
		cfg.Shards = shards
		cfg.PredictBatch = 32 // a batch that will never fill must not wait to
		l := startLive(t, cfg)
		l.HandleReport(chaosReport(7, 40, true, "synflood"))
		if !waitFor(t, 5*time.Second, func() bool { return l.DecisionCount() == 1 }) {
			t.Fatalf("shards=%d: a lone report through the ingest queue was never decided", shards)
		}
		l.Ingest(liveObs(8, 40, true, "synflood"))
		if !waitFor(t, 5*time.Second, func() bool { return l.DecisionCount() == 2 }) {
			t.Fatalf("shards=%d: a lone direct Ingest was never decided", shards)
		}
		l.Stop()
		assertAccounting(t, l)
	}
}

// oneShardKeys returns n flow keys that all hash onto one shard of nShards.
func oneShardKeys(n, nShards int) []flow.Key {
	var keys []flow.Key
	for p := uint16(1); len(keys) < n; p++ {
		if k := liveObs(p, 0, false, "").Key; k.Shard(nShards) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPushBurstIdleBurstOneShard drives one shard from concurrent
// direct Ingest callers and the shard's goroutine at once — burst, idle
// until settled, burst again — and requires every row decided exactly
// once, in per-flow Seq order. Concurrent callers share the shard's
// journal and its run lock, so a caller may find its row already
// decided by another, or decide rows it did not take; neither may
// duplicate, drop or reorder anything.
func TestPushBurstIdleBurstOneShard(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.Shards, cfg.PredictBatch = 4, 8
	l := newLive(t, cfg)
	var mu sync.Mutex
	seqs := make(map[flow.Key][]int)
	l.OnDecision = func(d Decision) {
		mu.Lock()
		seqs[d.Key] = append(seqs[d.Key], d.Seq)
		mu.Unlock()
	}
	l.Start()
	defer l.Stop()

	const flows, perBurst = 8, 25
	keys := oneShardKeys(flows, 4)
	decided := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, s := range seqs {
			n += len(s)
		}
		return n
	}
	for burst := 1; burst <= 2; burst++ {
		var wg sync.WaitGroup
		for f, key := range keys {
			wg.Add(1)
			// One goroutine per flow keeps each flow ordered at the
			// source; odd flows go through the ingest queue.
			go func(f int, key flow.Key) {
				defer wg.Done()
				pi := flow.PacketInfo{Key: key, Length: 40, HasTelemetry: true, Label: true, AttackType: "synflood"}
				for i := 0; i < perBurst; i++ {
					if f%2 == 1 {
						l.IngestAsync(pi)
					} else {
						l.Ingest(pi)
					}
				}
			}(f, key)
		}
		wg.Wait()
		want := burst * flows * perBurst
		if !waitFor(t, 10*time.Second, func() bool { return decided() == want }) {
			t.Fatalf("burst %d: %d rows decided, want %d (shed=%d)", burst, decided(), want, l.Shed.Load())
		}
		settle(t, l, 5*time.Second) // idle: nothing in flight before the next burst
	}

	mu.Lock()
	defer mu.Unlock()
	for _, key := range keys {
		got := seqs[key]
		if len(got) != 2*perBurst {
			t.Errorf("%s: %d decisions, want %d", key, len(got), 2*perBurst)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("%s: decision %d has Seq %d — duplicated, dropped or reordered: %v", key, i, seq, got)
			}
		}
	}
}

// TestPushRestoredJournalTailScored boots from a checkpoint whose
// journal tail is not empty — the state a crash between a row's take
// and its decision leaves — and expects that tail scored after Start
// with zero new reports. It does so twice: from a file this code
// writes, and from testdata/parent-tail-12.amck, the same 12 rows as
// written by commit d60008a, whose Live kept undecided rows in the
// store's journal (stamped with a global sequence) rather than in its
// shards. To regenerate that file, check out d60008a in a separate
// tree (git worktree add <path> d60008a, or a clone), run the first
// half of this test there — NewLive(ckptConfig(dir)), the same 12
// Ingest calls, WriteCheckpoint — and copy dir's
// ckpt-0000000000000001.amck here.
func TestPushRestoredJournalTailScored(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLive(ckptConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Not started: nothing is decided, so every snapshot stays pending
	// and rides the checkpoint as restored-pending work.
	const n = 12
	for i := 0; i < n; i++ {
		a.Ingest(liveObs(uint16(50+i%4), 40, true, "synflood"))
	}
	if _, _, err := a.WriteCheckpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	decideRestoredTail(t, dir, n)

	parent, err := os.ReadFile(filepath.Join("testdata", "parent-tail-12.amck"))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpoint.FileName(1)), parent, 0o644); err != nil {
		t.Fatal(err)
	}
	decideRestoredTail(t, dir, n)
}

// decideRestoredTail boots from dir, expects n rows pending, and
// requires every one decided — as an attack — after Start with no new
// reports, and nothing left pending.
func decideRestoredTail(t *testing.T, dir string, n int) {
	t.Helper()
	b := newLive(t, ckptConfig(dir))
	if r := b.Restore(); r == nil || r.JournalPending != n {
		t.Fatalf("restore summary %+v, want %d journal entries pending", r, n)
	}
	b.Start()
	if !waitFor(t, 5*time.Second, func() bool { return b.DecisionCount() == n }) {
		t.Fatalf("restored journal tail: %d of %d decided with no new reports", b.DecisionCount(), n)
	}
	b.Stop()
	assertAccounting(t, b)
	if g := b.Ledger(); !g.Settled() || g.Restored != int64(n) || g.Polled != int64(n) {
		t.Errorf("after deciding the tail: %s, want %d restored, %d polled, settled", g, n, n)
	}
	for _, d := range b.Decisions() {
		if d.Label != 1 {
			t.Errorf("restored record misdecided: %+v", d)
		}
	}
}

// outageStore fails every prediction-log write while down is set — a
// store outage with a beginning and an end, which the fault grammar's
// per-call probabilities cannot express.
type outageStore struct {
	store.Store
	down   atomic.Bool
	failed atomic.Int64
}

func (s *outageStore) TryAppendPrediction(p store.PredictionRecord) error {
	if s.down.Load() {
		s.failed.Add(1)
		return errors.New("store outage")
	}
	s.AppendPrediction(p)
	return nil
}

// TestPushStoreOutageThenSilenceDrains takes the prediction log down
// under traffic, ends the outage, and sends nothing more. An outage
// shorter than the retry budget loses nothing: the write retried
// through it. One longer than the budget drops the rows it outlasts —
// abandoned as store_dropped, OnDecision never called for them — and
// the ledger ends closed and settled either way.
func TestPushStoreOutageThenSilenceDrains(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.Shards = 2
	// The budget: retries after 30, 60 and 120 ms, then the drop.
	cfg.StoreRetryBackoff = 30 * time.Millisecond
	l := newLive(t, cfg)
	out := &outageStore{Store: l.DB}
	l.fdb = out
	var called atomic.Int64
	l.OnDecision = func(Decision) { called.Add(1) }
	l.Start()
	defer l.Stop()

	// A short outage: it ends at the first failed write, well inside
	// the budget.
	out.down.Store(true)
	const n = 10
	for i := 0; i < n; i++ {
		l.HandleReport(chaosReport(uint16(300+i), 40, true, "synflood"))
	}
	if !waitFor(t, 5*time.Second, func() bool { return out.failed.Load() > 0 }) {
		t.Fatal("no log write failed during the outage")
	}
	out.down.Store(false)
	if !l.AwaitSettled(5*time.Second) || l.DecisionCount() != n || l.StoreDropped.Load() != 0 {
		t.Fatalf("after a short outage %d of %d decided, %d dropped: %s",
			l.DecisionCount(), n, l.StoreDropped.Load(), l.Ledger())
	}
	if l.StoreRetries.Load() == 0 {
		t.Error("no store retries counted across the outage")
	}
	if l.Health() != HealthDegraded {
		t.Errorf("health = %v after a retried outage, want degraded", l.Health())
	}

	// A long outage: every write of m rows outlasts the budget.
	out.down.Store(true)
	const m = 4
	for i := 0; i < m; i++ {
		l.HandleReport(chaosReport(uint16(400+i), 40, true, "synflood"))
	}
	if !waitFor(t, 10*time.Second, func() bool { return l.StoreDropped.Load() == m }) {
		t.Fatalf("%d of %d writes dropped during a long outage", l.StoreDropped.Load(), m)
	}
	out.down.Store(false)
	if !l.AwaitSettled(5 * time.Second) {
		t.Fatalf("did not settle after the outage: %s", l.Ledger())
	}
	g := l.Ledger()
	if g.Decided != n || g.Abandoned != m || l.AbandonedByReason()["store_dropped"] != m {
		t.Errorf("after a long outage: %s (reasons %v), want %d decided and %d abandoned store_dropped",
			g, l.AbandonedByReason(), n, m)
	}
	if called.Load() != n || l.DB.PredictionCount() != n {
		t.Errorf("OnDecision called %d times, log holds %d, want %d: a dropped write is no decision",
			called.Load(), l.DB.PredictionCount(), n)
	}
	if l.Health() != HealthShedding {
		t.Errorf("health = %v after dropped writes, want shedding", l.Health())
	}
	assertAccounting(t, l)
}

// TestPushQueueOfOneShedsAndLedgerCloses pins the overload policy at
// its smallest bounds: a shard queue of one row behind a slow model,
// with the shed bound below the model's cost, sheds — counted,
// pipeline shedding — and every row drained is still a decision, a
// shed or an abandonment.
func TestPushQueueOfOneShedsAndLedgerCloses(t *testing.T) {
	cfg := liveConfig(slowModel{d: 2 * time.Millisecond})
	cfg.QueueCap = 1
	l := newLive(t, cfg)
	l.shedAfter = time.Millisecond
	l.Start()
	const n = 60
	for i := 0; i < n; i++ {
		l.IngestAsync(liveObs(uint16(i%6), 1000, false, "benign"))
	}
	settle(t, l, 10*time.Second)
	if l.Polled.Load() != n {
		t.Errorf("polled = %d, want every one of %d snapshots drained", l.Polled.Load(), n)
	}
	if l.Shed.Load() == 0 {
		t.Error("no shedding with a one-row queue and a slow model")
	}
	if l.DecisionCount() == 0 {
		t.Error("nothing decided: the queue's one row should still be scored")
	}
	if l.Health() != HealthShedding {
		t.Errorf("health = %v, want shedding", l.Health())
	}
	l.Stop()
	assertAccounting(t, l)
	if got := l.DB.PredictionCount(); got != l.DecisionCount() {
		t.Errorf("prediction log %d != decisions %d", got, l.DecisionCount())
	}
}
