package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/store"
)

// HealthState is the pipeline's aggregate condition, ordered by
// severity. The live runtime walks healthy → degraded → shedding and
// back as faults fire and clear; /healthz reports the current state
// with detail.
type HealthState int32

const (
	// HealthHealthy: full fidelity — every model voting, no recent
	// faults, queues with headroom.
	HealthHealthy HealthState = iota
	// HealthDegraded: best-effort answers under partial failure — an
	// ensemble member marked unhealthy (quorum degraded to
	// majority-of-available), shards restarted after panics, or
	// store operations retried. No records are being lost.
	HealthDegraded
	// HealthShedding: records are being lost or about to be — queues
	// nearly full, rows shed past the bound, a shard permanently down
	// (restart budget exhausted), or store writes dropped after
	// exhausting retries.
	HealthShedding
)

// String returns the /healthz state name.
func (s HealthState) String() string {
	switch s {
	case HealthDegraded:
		return obs.StateDegraded
	case HealthShedding:
		return obs.StateShedding
	default:
		return obs.StateHealthy
	}
}

// modelHealth is one ensemble member's failure-tracking state
// machine: healthy until modelFailThreshold consecutive scoring
// failures, then unhealthy (no votes, quorum degrades) until a probe
// after modelProbeAfter succeeds. Shared by every shard.
type modelHealth struct {
	name string

	mu        sync.Mutex
	consec    int       // consecutive failures
	unhealthy bool      // currently out of the ensemble
	since     time.Time // when marked unhealthy (probe timer)
	failures  int64     // lifetime failures, for reporting
}

// available reports whether the model should be scored for the next
// batch: healthy, or unhealthy but due for a recovery probe.
func (mh *modelHealth) available(now time.Time, probeAfter time.Duration) bool {
	mh.mu.Lock()
	defer mh.mu.Unlock()
	return !mh.unhealthy || now.Sub(mh.since) >= probeAfter
}

// markFailure records one failed scoring call, returning whether the
// model just crossed into unhealthy. A failed probe re-arms the
// cooldown.
func (mh *modelHealth) markFailure(now time.Time) (turnedUnhealthy bool) {
	mh.mu.Lock()
	defer mh.mu.Unlock()
	mh.consec++
	mh.failures++
	if mh.unhealthy {
		mh.since = now // failed probe: restart the cooldown
		return false
	}
	if mh.consec >= modelFailThreshold {
		mh.unhealthy = true
		mh.since = now
		return true
	}
	return false
}

// markSuccess records one successful scoring call, returning whether
// the model just recovered.
func (mh *modelHealth) markSuccess() (recovered bool) {
	mh.mu.Lock()
	defer mh.mu.Unlock()
	mh.consec = 0
	if mh.unhealthy {
		mh.unhealthy = false
		return true
	}
	return false
}

// snapshot returns (unhealthy, lifetime failures) for reporting.
func (mh *modelHealth) snapshot() (bool, int64) {
	mh.mu.Lock()
	defer mh.mu.Unlock()
	return mh.unhealthy, mh.failures
}

// healthTracker is the pipeline-level state machine. Fault events
// raise the state immediately (a shed record flips shedding the
// moment it happens); reassess lowers it once conditions clear and
// the recency window expires. Transitions are recorded as structured
// events (component=health) and rendered back into the legacy
// transition-log strings by HealthTransitions.
type healthTracker struct {
	state atomic.Int32

	lastDegraded atomic.Int64 // unix nanos of the last degraded-class event
	lastShed     atomic.Int64 // unix nanos of the last shedding-class event
}

const healthLogCap = 32

// VoteAbsent marks a model that produced no vote for a record — it
// was unhealthy or its scoring call failed — in Decision.Votes. The
// quorum never counts absent votes.
const VoteAbsent = store.VoteAbsent

// setHealthState moves the state machine, logging and counting the
// transition when the state actually changes.
func (l *Live) setHealthState(s HealthState, why string) {
	prev := HealthState(l.health.state.Swap(int32(s)))
	if prev == s {
		return
	}
	l.met.healthTransitions.With(s.String()).Inc()
	l.event("health transition", "component", "health",
		"from", prev.String(), "to", s.String(), "why", why)
}

// noteDegraded records a degraded-class fault event (model failure,
// shard restart, store retry) and raises the state if it is below
// degraded.
func (l *Live) noteDegraded(why string) {
	l.health.lastDegraded.Store(time.Now().UnixNano())
	if HealthState(l.health.state.Load()) < HealthDegraded {
		l.setHealthState(HealthDegraded, why)
	}
}

// noteShedding records a shedding-class fault event (shed record,
// dead shard, dropped store write) and raises the state to shedding.
// Shed events hit the event log at most once per second — under
// saturation every pass sheds, and a flood of identical events
// would wash the operational tail out of the ring.
func (l *Live) noteShedding(why string) {
	l.health.lastShed.Store(time.Now().UnixNano())
	sec := time.Now().Unix()
	if last := l.lastShedEvent.Load(); sec > last && l.lastShedEvent.CompareAndSwap(last, sec) {
		l.event("records shed", "component", "load", "why", why)
	}
	if HealthState(l.health.state.Load()) < HealthShedding {
		l.setHealthState(HealthShedding, why)
	}
}

// Health returns the pipeline's aggregate state. Fault events raise it
// the moment they happen; lowering it — faults cleared, recency window
// expired — is recomputed here, on read: an idle pipeline has no tick
// to notice, and nothing but a reader cares when it does.
func (l *Live) Health() HealthState {
	now := time.Now().UnixNano()
	recency := l.healthRecency.Nanoseconds()
	target := HealthHealthy
	switch {
	case l.shardsDown.Load() > 0,
		now-l.health.lastShed.Load() < recency,
		l.queueOccupancy() >= 0.9:
		target = HealthShedding
	case l.unhealthyModels() > 0,
		now-l.health.lastDegraded.Load() < recency:
		target = HealthDegraded
	}
	l.setHealthState(target, "reassess")
	return HealthState(l.health.state.Load())
}

// queueLoad sums the shard queues' occupancy and capacity.
func (l *Live) queueLoad() (used, capacity int) {
	for _, sh := range l.shards {
		used += len(sh.queue)
		capacity += cap(sh.queue)
	}
	return used, capacity
}

// queueOccupancy returns the fraction of total queue capacity in use.
func (l *Live) queueOccupancy() float64 {
	used, capacity := l.queueLoad()
	if capacity == 0 {
		return 0
	}
	return float64(used) / float64(capacity)
}

// unhealthyModels counts ensemble members currently out of the vote.
func (l *Live) unhealthyModels() int {
	n := 0
	for _, mh := range l.modelHealth {
		if bad, _ := mh.snapshot(); bad {
			n++
		}
	}
	return n
}

// healthReport renders the /healthz body: state, accounting,
// per-model health, and the recent transition log.
func (l *Live) healthReport() obs.Health {
	st := l.Health()
	detail := []string{
		fmt.Sprintf("shards=%d shards_down=%d worker_restarts=%d store_retries=%d queue_occupancy=%.2f",
			l.nShards, l.shardsDown.Load(), l.WorkerRestarts.Load(), l.StoreRetries.Load(), l.queueOccupancy()),
		l.Ledger().String(),
	}
	if l.cfg.CheckpointDir != "" {
		line := fmt.Sprintf("checkpoints=%d failures=%d last_success_unix=%.0f",
			l.Checkpoints.Load(), l.met.ckptFailures.Value(), l.met.ckptLastSuccess.Value())
		if r := l.restored; r != nil {
			line += fmt.Sprintf(" restored_seq=%d restored_flows=%d restored_pending=%d", r.Seq, r.Flows, r.JournalPending)
		}
		detail = append(detail, line)
	}
	for _, mh := range l.modelHealth {
		bad, fails := mh.snapshot()
		state := obs.StateHealthy
		if bad {
			state = "unhealthy"
		}
		detail = append(detail, fmt.Sprintf("model %s: %s (failures=%d)", mh.name, state, fails))
	}
	for _, entry := range l.HealthTransitions() {
		detail = append(detail, "transition: "+entry)
	}
	return obs.Health{State: st.String(), Detail: detail}
}

// HealthTransitions returns the recent transition log (oldest first),
// rendered from the structured event log's component=health events in
// the exact strings the pre-event-log implementation produced.
func (l *Live) HealthTransitions() []string {
	var out []string
	for _, e := range l.events.Recent() {
		if e.Attrs["component"] != "health" {
			continue
		}
		ts := e.Time.UTC().Format(time.RFC3339)
		switch e.Msg {
		case "health transition":
			out = append(out, fmt.Sprintf("%s %s -> %s (%s)", ts, e.Attrs["from"], e.Attrs["to"], e.Attrs["why"]))
		case "model recovered":
			out = append(out, fmt.Sprintf("%s model %s recovered", ts, e.Attrs["model"]))
		}
	}
	if len(out) > healthLogCap {
		out = out[len(out)-healthLogCap:]
	}
	return out
}

// scoreBatch runs the ensemble over the standardized batch with
// per-model fault isolation: each member scores through
// ml.TryPredictBatch (panic-contained, fallible path when wrapped);
// a member that fails or is marked unhealthy contributes VoteAbsent
// for every row and the member's health state machine advances.
// navail is how many members actually voted. With every member
// healthy the result is element-for-element identical to
// ml.EnsembleVotes — the fault-free path changes nothing. The outer
// votes header and the ones buffer are recycled from the shard's
// scratch across batches; only the flat per-row vote storage is
// allocated per call, because a Decision's holder keeps its row.
func (l *Live) scoreBatch(s *batchScratch, X [][]float64) (votes [][]int, ones []int, navail int) {
	models := l.cfg.Models
	votes, ones = s.vs.Rows(len(X), len(models))
	now := time.Now()
	for mi, m := range models {
		mh := l.modelHealth[mi]
		if !mh.available(now, l.modelProbeAfter) {
			markAbsent(votes, mi)
			continue
		}
		labels, err := ml.TryPredictBatch(m, X)
		if err == nil && len(labels) != len(X) {
			err = fmt.Errorf("core: model %s returned %d labels for %d rows", mh.name, len(labels), len(X))
		}
		if err != nil {
			l.ModelFailures.Add(1)
			l.met.modelFailures.With(mh.name).Inc()
			if mh.markFailure(now) {
				l.met.modelHealthy.With(mh.name).Set(0)
			}
			l.noteDegraded("model " + mh.name + " failed")
			markAbsent(votes, mi)
			continue
		}
		if mh.markSuccess() {
			l.met.modelHealthy.With(mh.name).Set(1)
			l.event("model recovered", "component", "health", "model", mh.name)
		}
		navail++
		for i, lab := range labels {
			votes[i][mi] = lab
			ones[i] += lab
		}
	}
	return votes, ones, navail
}

// markAbsent fills one model's column with VoteAbsent.
func markAbsent(votes [][]int, mi int) {
	for i := range votes {
		votes[i][mi] = VoteAbsent
	}
}
