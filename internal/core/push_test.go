package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
)

// The tests in this file pin the failure modes a push design adds over
// a polled one: with no tick behind it, a record that is journaled and
// not decided stays where it is forever. Each test ends in silence —
// no later report arrives to cover for a missed pass.

// TestPushLoneReportDecided sends one report into an idle, started
// pipeline down each ingest path and expects its decision with nothing
// behind it: the lost-wake-up case.
func TestPushLoneReportDecided(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := liveConfig(attackDetector())
		cfg.Shards = shards
		cfg.PredictBatch = 32 // a batch that will never fill must not wait to
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.Start()
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
// decided by another, or decide rows it did not write; neither may
// duplicate, drop or reorder anything.
func TestPushBurstIdleBurstOneShard(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.Shards, cfg.PredictBatch = 4, 8
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
// journal tail is not empty — the state a crash between a journal write
// and its decision leaves — and expects that tail scored after Start
// with zero new reports.
func TestPushRestoredJournalTailScored(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLive(ckptConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Not started: nothing is decided, so every snapshot stays in
	// the journal and rides the checkpoint as restored-pending work.
	const n = 12
	for i := 0; i < n; i++ {
		a.Ingest(liveObs(uint16(50+i%4), 40, true, "synflood"))
	}
	if _, _, err := a.WriteCheckpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	b, err := NewLive(ckptConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if r := b.Restore(); r == nil || r.JournalPending != n {
		t.Fatalf("restore summary %+v, want %d journal entries pending", r, n)
	}
	b.Start()
	if !waitFor(t, 5*time.Second, func() bool { return b.DecisionCount() == n }) {
		t.Fatalf("restored journal tail: %d of %d decided with no new reports", b.DecisionCount(), n)
	}
	b.Stop()
	assertAccounting(t, b)
	if got := b.DB.JournalLen(); got != 0 {
		t.Errorf("journal still holds %d entries", got)
	}
	for _, d := range b.Decisions() {
		if d.Label != 1 {
			t.Errorf("restored record misdecided: %+v", d)
		}
	}
}

// outageStore fails every journal drain while down is set — a store
// outage with a beginning and an end, which the fault grammar's
// per-call probabilities cannot express. Writes pass through.
type outageStore struct {
	store.Store
	down   atomic.Bool
	failed atomic.Int64
}

func (s *outageStore) TryUpsertFlow(key flow.Key, features []float64, registeredAt, updatedAt netsim.Time, updates int, truth bool, attackType string) (bool, error) {
	return s.UpsertFlow(key, features, registeredAt, updatedAt, updates, truth, attackType), nil
}

func (s *outageStore) TryDrainShard(shard int, buf []store.FlowRecord) ([]store.FlowRecord, error) {
	if s.down.Load() {
		s.failed.Add(1)
		return buf, errors.New("store outage")
	}
	return s.DrainShard(shard, buf), nil
}

// TestPushStoreOutageThenSilenceDrains journals reports while journal
// drains fail, ends the outage, and sends nothing more: the rows must
// still be decided, by the shard's own timed retry.
func TestPushStoreOutageThenSilenceDrains(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.Shards = 2
	cfg.StoreRetryBackoff = 200 * time.Microsecond
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := &outageStore{Store: l.DB}
	out.down.Store(true)
	l.fdb = out
	l.Start()
	defer l.Stop()

	const n = 20
	for i := 0; i < n; i++ {
		l.HandleReport(chaosReport(uint16(300+i), 40, true, "synflood"))
	}
	// Every shard with rows has tried its journal drain and failed.
	if !waitFor(t, 5*time.Second, func() bool {
		return l.IngestBacklog() == 0 && out.failed.Load() >= 2
	}) {
		t.Fatalf("backlog=%d failed drains=%d during the outage", l.IngestBacklog(), out.failed.Load())
	}
	if l.Polled.Load() != 0 || l.DB.JournalLen() != n {
		t.Fatalf("during the outage polled=%d journal=%d, want 0/%d: a failed drain must consume nothing",
			l.Polled.Load(), l.DB.JournalLen(), n)
	}
	if l.Health() != HealthDegraded {
		t.Errorf("health = %v during the outage, want degraded", l.Health())
	}
	// Rows the outage keeps journaled are in flight: the ledger is closed
	// but not settled, and waiting on it times out rather than hangs.
	if g := l.Ledger(); !g.Closed() || g.Settled() || l.AwaitSettled(20*time.Millisecond) {
		t.Errorf("during the outage the ledger should read closed, unsettled: %s", g)
	}
	out.down.Store(false)
	if !l.AwaitSettled(5*time.Second) || l.DecisionCount() != n {
		t.Fatalf("after the outage %d of %d decided with no new reports: %s",
			l.DecisionCount(), n, l.Ledger())
	}
	if l.StoreRetries.Load() == 0 {
		t.Error("no store retries counted across the outage")
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
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
