package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/obs"
)

// TestLedgerClosedSettled walks the one definition over hand-built
// readings: a balanced ledger, the same ledger open by one in every
// term, and the cases each former hand-rolled predicate got wrong.
func TestLedgerClosedSettled(t *testing.T) {
	// 12 reports: 1 duplicate, 1 stale, 1 fault drop, 1 dropped after
	// Stop, 8 accepted and taken; 5 decided, 1 shed, 2 abandoned (one
	// of them a log write store-dropped).
	base := Ledger{
		Reports: 12, Duplicates: 1, Stale: 1, FaultDrops: 1, IngestDropped: 1,
		Accepted: 8, Journaled: 8,
		Snapshots: 8, Polled: 8, Decided: 5, Shed: 1, Abandoned: 2,
	}
	with := func(edit func(*Ledger)) Ledger { g := base; edit(&g); return g }
	cases := []struct {
		name                     string
		g                        Ledger
		reports, closed, settled bool
	}{
		{"balanced", base, true, true, true},
		{"empty", Ledger{}, true, true, true},

		{"report counted nowhere", with(func(g *Ledger) { g.Reports++ }), false, true, true},
		{"duplicate too many", with(func(g *Ledger) { g.Duplicates++ }), false, true, true},
		{"stale too many", with(func(g *Ledger) { g.Stale++ }), false, true, true},
		{"fault drop too many", with(func(g *Ledger) { g.FaultDrops++ }), false, true, true},
		{"ingest drop too many", with(func(g *Ledger) { g.IngestDropped++ }), false, true, true},
		{"one queued at a shard", with(func(g *Ledger) { g.Reports++; g.Accepted++ }), true, true, false},
		{"one still pending", with(func(g *Ledger) { g.Reports++; g.Accepted++; g.Journaled++; g.Snapshots++; g.Pending++ }), true, true, false},
		{"one decision missing", with(func(g *Ledger) { g.Decided-- }), true, false, false},
		{"one shed uncounted", with(func(g *Ledger) { g.Shed-- }), true, false, false},
		{"one abandoned uncounted", with(func(g *Ledger) { g.Abandoned-- }), true, false, false},
		{"one decided twice", with(func(g *Ledger) { g.Decided++ }), true, false, false},

		{"restored tail pending", Ledger{Restored: 5, Pending: 5}, true, true, false},
		{"restored tail decided", Ledger{Restored: 5, Polled: 5, Decided: 5}, true, true, true},
		// Polled >= Snapshots holds here, which is all the pre-ledger
		// settle loops asked of a restored run.
		{"restored tail decided, 3 new rows queued at a shard", Ledger{Reports: 3, Accepted: 3,
			Restored: 5, Polled: 5, Decided: 5}, true, true, false},

		{"shed past the bound", Ledger{Reports: 10, Accepted: 10, Journaled: 10,
			Snapshots: 10, Polled: 10, Decided: 1, Shed: 9}, true, true, true},
	}
	for _, c := range cases {
		if got := c.g.ReportsClosed(); got != c.reports {
			t.Errorf("%s: ReportsClosed = %v, want %v (%s)", c.name, got, c.reports, c.g)
		}
		if got := c.g.Closed(); got != c.closed {
			t.Errorf("%s: Closed = %v, want %v (%s)", c.name, got, c.closed, c.g)
		}
		if got := c.g.Settled(); got != c.settled {
			t.Errorf("%s: Settled = %v, want %v (%s)", c.name, got, c.settled, c.g)
		}
		prefix := "accounting: OPEN "
		if c.closed {
			prefix = "accounting: CLOSED "
		}
		if !strings.HasPrefix(c.g.String(), prefix) {
			t.Errorf("%s: String() = %q, want prefix %q", c.name, c.g, prefix)
		}
	}
}

// TestLedgerSeesReportsParkedAtIngest is the regression test for
// RunChaos's old settle loop, which never looked at the ingest queues:
// reports accepted by HandleReport but not yet journaled satisfied it,
// so Stop could begin with them in flight and abandon them.
func TestLedgerSeesReportsParkedAtIngest(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.Shards = 2
	l := newLive(t, cfg)
	// Park the shards behind the capture barrier.
	for s := range l.ckptMu {
		l.ckptMu[s].Lock()
	}
	lift := sync.OnceFunc(func() {
		for s := range l.ckptMu {
			l.ckptMu[s].Unlock()
		}
	})
	l.Start()
	defer l.Stop()
	defer lift() // Stop waits for the shards
	const n = 20
	for i := 0; i < n; i++ {
		l.HandleReport(chaosReport(uint16(400+i), 40, true, "synflood"))
	}
	g := l.Ledger()
	if g.Accepted != n || g.Journaled != 0 {
		t.Fatalf("accepted=%d journaled=%d, want %d/0 with the shards parked", g.Accepted, g.Journaled, n)
	}
	// The pre-ledger RunChaos predicate: every snapshot polled,
	// pipeline closed.
	if !(g.Polled >= g.Snapshots && g.Closed()) {
		t.Fatalf("the old predicate should read settled here: %s", g)
	}
	if g.Settled() {
		t.Errorf("Settled with %d reports queued at the shards: %s", n, g)
	}
	if l.AwaitSettled(20 * time.Millisecond) {
		t.Error("AwaitSettled returned true with the shards parked")
	}
	lift()
	if !l.AwaitSettled(5 * time.Second) {
		t.Fatalf("did not settle once the barrier lifted: %s", l.Ledger())
	}
	if g := l.Ledger(); g.Decided != n || !g.ReportsClosed() {
		t.Errorf("after settling: %s, want %d decided and the report side closed", g, n)
	}
}

// TestLedgerStringIsTheOneRendering pins that /healthz and the
// "pipeline stopped" event carry the very line the CLI prints.
func TestLedgerStringIsTheOneRendering(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := liveConfig(attackDetector())
	cfg.Registry = reg
	l := startLive(t, cfg)
	feedChaos(l, 10, 3)
	settle(t, l, 5*time.Second)
	l.Stop()
	want := l.Ledger().String()
	if !strings.HasPrefix(want, "accounting: CLOSED ") || !strings.Contains(want, " Decided:30 ") {
		t.Fatalf("ledger line = %q", want)
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), want) {
		t.Errorf("/healthz does not carry the ledger line %q:\n%s", want, body)
	}

	found := false
	for _, e := range l.events.Recent() {
		if e.Msg == "pipeline stopped" {
			found = true
			if e.Attrs["ledger"] != want {
				t.Errorf("pipeline stopped event ledger = %q, want %q", e.Attrs["ledger"], want)
			}
		}
	}
	if !found {
		t.Error("no pipeline stopped event")
	}
}

// TestIngestAfterStopIsDropped pins Stop's contract for a late
// producer: a report handed to ingestAsync after Stop is counted as
// dropped, never parked in a queue no shard drains again.
func TestIngestAfterStopIsDropped(t *testing.T) {
	l := startLive(t, liveConfig(attackDetector()))
	l.Stop()
	for i := 0; i < 100; i++ {
		l.ingestAsync(liveObs(uint16(i), 40, true, "synflood"))
	}
	if got := l.MetricsSnapshot().Counters["intddos_ingest_dropped_total"]; got != 100 {
		t.Errorf("intddos_ingest_dropped_total = %d, want 100", got)
	}
	if got := l.IngestBacklog(); got != 0 {
		t.Errorf("IngestBacklog = %d after Stop, want 0", got)
	}
	if g := l.Ledger(); !g.Settled() {
		t.Errorf("ledger not settled: %s", g)
	}
}
