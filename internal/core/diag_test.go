package core

import (
	"strings"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/obs"
)

// sampleJourneys replaces the pipeline's journey sampler, between
// NewLive and Start: one following 1-in-every records on each shard,
// or none at all when every is negative.
func sampleJourneys(l *Live, every int) {
	l.journeys = nil
	if every >= 0 {
		l.journeys = obs.NewJourneys(every, 0, l.nShards)
	}
	for i, sh := range l.shards {
		sh.journeys = l.journeys.Shard(i)
	}
	l.reg.SetFlowJourneys(l.journeys)
}

// TestFlowJourneyCompleteness samples every record (1-in-1) and checks
// that each finished journey carries the full hop sequence — ingest,
// journal, poll, batch, predict, and the completing vote — with no
// journey left in flight after the pipeline drains.
func TestFlowJourneyCompleteness(t *testing.T) {
	l := newLive(t, liveConfig(attackDetector()))
	sampleJourneys(l, 1)
	l.Start()

	// Through the shard's queue, the path reports take.
	const n = 40
	for i := 0; i < n; i++ {
		l.ingestAsync(liveObs(uint16(2000+i), 40, true, "synflood"))
	}
	if !waitFor(t, 5e9, func() bool {
		return l.Predictions.Load() >= n && l.journeys.Active() == 0
	}) {
		t.Fatalf("pipeline did not drain: completed=%d active=%d",
			l.Predictions.Load(), l.journeys.Active())
	}
	l.Stop()

	recent := l.journeys.Recent()
	if len(recent) == 0 {
		t.Fatal("no finished journeys recorded at 1-in-1 sampling")
	}
	completed, aborted, _ := l.journeys.Stats()
	if completed < n {
		t.Errorf("completed journeys = %d, want >= %d", completed, n)
	}
	if aborted != 0 {
		t.Errorf("aborted journeys = %d, want 0 on a clean run", aborted)
	}
	for _, j := range recent {
		if j.Aborted != "" {
			t.Errorf("journey %s aborted (%s) on a clean run", j.Flow, j.Aborted)
			continue
		}
		if !j.Done {
			t.Errorf("journey %s in Recent() but not done", j.Flow)
		}
		prev := j.Hops[0].At
		for _, hop := range []string{"ingest", "journal", "poll", "batch", "predict", "vote"} {
			var at time.Time
			ok := false
			for _, h := range j.Hops {
				if h.Name == hop {
					at, ok = h.At, true
					break
				}
			}
			if !ok {
				t.Errorf("journey %s missing hop %q: %s", j.Flow, hop, j.String())
				continue
			}
			if at.Before(prev) {
				t.Errorf("journey %s hop %q went backwards in time: %s", j.Flow, hop, j.String())
			}
			prev = at
		}
	}
}

// TestJourneySamplingDisabled pins nil-safety: a pipeline with no
// sampler runs journey-free — no sampler hops, no finished journeys,
// and the nil accessor stays safe.
func TestJourneySamplingDisabled(t *testing.T) {
	l := newLive(t, liveConfig(attackDetector()))
	sampleJourneys(l, -1)
	l.Start()
	for i := 0; i < 10; i++ {
		l.Ingest(liveObs(uint16(3000+i), 40, false, ""))
	}
	waitFor(t, 5e9, func() bool { return l.Predictions.Load() >= 10 })
	l.Stop()

	if got := len(l.journeys.Recent()); got != 0 {
		t.Errorf("journeys recorded with sampling disabled: %d", got)
	}
}

// TestLiveEventLog checks the structured event log carries the
// lifecycle markers and that the diagnostic gauges the events describe
// are live in the registry.
func TestLiveEventLog(t *testing.T) {
	cfg := liveConfig(attackDetector())
	l := startLive(t, cfg)
	for i := 0; i < 5; i++ {
		l.Ingest(liveObs(7, 40, true, "synflood"))
	}
	waitFor(t, 5e9, func() bool { return l.DecisionCount() > 0 })
	l.Stop()

	var started, stopped bool
	for _, e := range l.events.Recent() {
		switch e.Msg {
		case "pipeline started":
			started = true
			if e.Attrs["shards"] == "" {
				t.Errorf("pipeline started event missing sizing attrs: %v", e.Attrs)
			}
		case "pipeline stopped":
			stopped = true
		}
	}
	if !started || !stopped {
		t.Errorf("lifecycle events missing: started=%v stopped=%v", started, stopped)
	}

	snap := l.MetricsSnapshot()
	for _, want := range []string{
		"intddos_queue_depth",
		"go_goroutines",
	} {
		if _, ok := snap.Gauges[want]; !ok {
			t.Errorf("gauge %q missing from registry snapshot", want)
		}
	}
	// Per-shard vectors render into the Prometheus exposition.
	var sb strings.Builder
	l.reg.WritePrometheus(&sb)
	for _, want := range []string{
		"intddos_shard_queue_depth{shard=\"0\"}",
		"intddos_shard_utilization{shard=\"0\"}",
		"intddos_shard_polled_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestHealthTransitionsRenderFromEvents pins the legacy transition-log
// contract: health state changes land in the event log and
// HealthTransitions() re-renders them in the exact historical format
// the chaos harness and /healthz parse.
func TestHealthTransitionsRenderFromEvents(t *testing.T) {
	l, err := NewLive(liveConfig(attackDetector()))
	if err != nil {
		t.Fatal(err)
	}
	l.setHealthState(HealthDegraded, "worker 0 restarted")
	l.setHealthState(HealthHealthy, "worker pool stable")

	trs := l.HealthTransitions()
	if len(trs) != 2 {
		t.Fatalf("transitions = %d, want 2: %v", len(trs), trs)
	}
	if !strings.Contains(trs[0], "healthy -> degraded (worker 0 restarted)") {
		t.Errorf("transition format drifted: %q", trs[0])
	}
	if !strings.Contains(trs[1], "degraded -> healthy (worker pool stable)") {
		t.Errorf("transition format drifted: %q", trs[1])
	}
}

// TestDescribeConfigReportsEffectiveProfiling pins the bundle's
// config.txt to what the pipeline really runs with: contention
// profiling is always on at prof's default rates, so those — not the
// zero value of a knob nobody set — are what the file must say.
func TestDescribeConfigReportsEffectiveProfiling(t *testing.T) {
	l, err := NewLive(liveConfig(attackDetector()))
	if err != nil {
		t.Fatal(err)
	}
	got := l.describeConfig()
	for _, want := range []string{"profile_mutex_fraction=100\n", "profile_block_rate_ns=10000\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("config.txt missing %q:\n%s", want, got)
		}
	}
}
