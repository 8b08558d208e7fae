package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/checkpoint"
	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
)

// countVoter votes attack while a flow's update count is below
// thresh, then flips benign — a model whose vote *changes over a
// flow's lifetime*, so the window majority around the flip depends on
// pre-flip history. A restore that lost the vote windows would
// decide those updates differently than an uninterrupted run.
func countVoter(thresh float64) stubModel {
	feats := flow.INTFeatures()
	for i, f := range feats {
		if f == flow.FCount {
			return stubModel{name: "countvoter", index: i, thresh: thresh}
		}
	}
	panic("FCount not in INTFeatures")
}

// ckptConfig is the shared pipeline shape of the kill-restore tests.
func ckptConfig(dir string) LiveConfig {
	cfg := liveConfig(attackDetector(), countVoter(4))
	cfg.Shards = 4
	cfg.CheckpointDir = dir
	return cfg
}

// feedRange pushes updates [from, to) for nFlows flows, same stream
// shape as feedChaos.
func feedRange(l *Live, nFlows, from, to int) {
	for u := from; u < to; u++ {
		for f := 0; f < nFlows; f++ {
			sport := uint16(2000 + f)
			attack := f%3 == 0
			length := uint16(1000)
			typ := "benign"
			if attack {
				length, typ = 40, "synflood"
			}
			l.HandleReport(chaosReport(sport, length, attack, typ))
		}
	}
}

// predTrace builds the per-flow prediction sequence (label + votes)
// from the store's prediction log — the bit-identity unit: per-flow
// order is guaranteed by shard affinity, and for a restored pipeline
// the log includes the pre-crash history.
func predTrace(l *Live) map[string][]string {
	out := make(map[string][]string)
	for _, p := range logged(l) {
		key := p.Key.String()
		out[key] = append(out[key], fmt.Sprintf("label=%d votes=%v", p.Label, p.Votes))
	}
	return out
}

// TestKillRestoreBitIdentical is the tentpole's acceptance test: a
// run killed mid-stream and restored from its checkpoint produces
// bit-identical per-flow decision sequences to an uninterrupted
// reference run, and the restored run's accounting closes.
//
// Run A processes the full stream. Run B processes a prefix, writes a
// checkpoint, and is discarded without Stop-side draining counting
// for anything (the simulated SIGKILL — everything not in the
// checkpoint is gone). Run C boots from B's checkpoint and processes
// the suffix. C's prediction log (pre-crash history + post-restore
// decisions) must equal A's flow for flow.
func TestKillRestoreBitIdentical(t *testing.T) {
	const nFlows, cut, total = 30, 3, 6

	// Reference run: the full stream, uninterrupted.
	a := startLive(t, ckptConfig(t.TempDir()))
	feedRange(a, nFlows, 0, total)
	settle(t, a, 5*time.Second)
	a.Stop()
	want := predTrace(a)

	// Crash run: prefix only, checkpoint while updates may still be
	// unpolled (the barrier quiesces in-flight records; the journal
	// tail rides the checkpoint as restored-pending work).
	dir := t.TempDir()
	b := startLive(t, ckptConfig(dir))
	feedRange(b, nFlows, 0, cut)
	path, n, err := b.WriteCheckpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n == 0 {
		t.Fatal("empty checkpoint written")
	}
	if b.Checkpoints.Load() != 1 {
		t.Errorf("Checkpoints = %d, want 1", b.Checkpoints.Load())
	}
	t.Logf("checkpoint %s: %d bytes", path, n)
	b.Stop() // the simulated kill: B's post-checkpoint state is discarded

	// Restored run: boots from the checkpoint, finishes the stream.
	c := newLive(t, ckptConfig(dir))
	r := c.Restore()
	if r == nil {
		t.Fatal("no restore summary after booting from a checkpoint dir")
	}
	if r.Flows == 0 || r.Windows == 0 {
		t.Errorf("restore summary empty: %+v", r)
	}
	c.Start()
	feedRange(c, nFlows, cut, total)
	// Bit-identity implies the same prediction total as the reference.
	settle(t, c, 5*time.Second)
	if wantPreds := len(logged(a)); len(logged(c)) < wantPreds {
		t.Fatalf("restored run produced %d predictions, reference %d", len(logged(c)), wantPreds)
	}
	c.Stop()
	assertAccounting(t, c)

	got := predTrace(c)
	if len(got) != len(want) {
		t.Fatalf("restored run decided %d flows, reference %d", len(got), len(want))
	}
	for key, wantSeq := range want {
		gotSeq := got[key]
		if len(gotSeq) != len(wantSeq) {
			t.Errorf("flow %s: %d predictions vs reference %d\n got: %v\nwant: %v",
				key, len(gotSeq), len(wantSeq), gotSeq, wantSeq)
			continue
		}
		for i := range wantSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Errorf("flow %s decision %d diverged across the crash:\n got: %s\nwant: %s",
					key, i, gotSeq[i], wantSeq[i])
			}
		}
	}
}

// TestKillRestoreV1Compat pins the cross-version promise: a version-1
// snapshot — global prediction log, journal entries without global
// stamps — still restores into today's pipeline, and the restored run
// finishes the stream with per-flow decision sequences bit-identical
// to an uninterrupted reference. The v1 file is built from a live
// capture via checkpoint.EncodeV1, folding the per-shard logs into
// the one global section exactly as a version-1 writer recorded them.
func TestKillRestoreV1Compat(t *testing.T) {
	const nFlows, cut, total = 30, 3, 6

	a := startLive(t, ckptConfig(t.TempDir()))
	feedRange(a, nFlows, 0, total)
	settle(t, a, 5*time.Second)
	a.Stop()
	want := predTrace(a)

	// Crash run: capture the prefix, then write it in the version-1
	// layout — the snapshot an old binary would have left on disk.
	b := startLive(t, ckptConfig(t.TempDir()))
	feedRange(b, nFlows, 0, cut)
	snap, err := b.capture(false, nil)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	b.Stop()
	for s := range snap.ShardStates {
		snap.Predictions = append(snap.Predictions, snap.ShardStates[s].Store.Preds...)
	}
	sort.Slice(snap.Predictions, func(i, j int) bool { return snap.Predictions[i].Seq < snap.Predictions[j].Seq })
	dir := t.TempDir()
	data := checkpoint.EncodeV1(snap)
	if err := os.WriteFile(filepath.Join(dir, checkpoint.FileName(snap.Seq)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := NewLive(ckptConfig(dir))
	if err != nil {
		t.Fatalf("restore from v1 snapshot: %v", err)
	}
	r := c.Restore()
	if r == nil {
		t.Fatal("no restore summary after booting from a v1 checkpoint")
	}
	if r.Predictions != len(snap.Predictions) {
		t.Errorf("restored %d predictions from the v1 global log, want %d", r.Predictions, len(snap.Predictions))
	}
	c.Start()
	feedRange(c, nFlows, cut, total)
	settle(t, c, 5*time.Second)
	if wantPreds := len(logged(a)); len(logged(c)) < wantPreds {
		t.Fatalf("restored run produced %d predictions, reference %d", len(logged(c)), wantPreds)
	}
	c.Stop()
	assertAccounting(t, c)

	// The re-stamped history plus post-restore decisions still merge
	// into one strictly increasing global order.
	merged := logged(c)
	for i := 1; i < len(merged); i++ {
		if merged[i].Seq <= merged[i-1].Seq {
			t.Fatalf("merged log not strictly Seq-increasing at %d after v1 restore", i)
		}
	}

	got := predTrace(c)
	if len(got) != len(want) {
		t.Fatalf("restored run decided %d flows, reference %d", len(got), len(want))
	}
	for key, wantSeq := range want {
		gotSeq := got[key]
		if len(gotSeq) != len(wantSeq) {
			t.Errorf("flow %s: %d predictions vs reference %d\n got: %v\nwant: %v",
				key, len(gotSeq), len(wantSeq), gotSeq, wantSeq)
			continue
		}
		for i := range wantSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Errorf("flow %s decision %d diverged across the v1 restore:\n got: %s\nwant: %s",
					key, i, gotSeq[i], wantSeq[i])
			}
		}
	}
}

// TestKillRestoreUnderFaults reruns the kill-restore cycle with the
// fault injector firing — store errors/stalls, worker panics, model
// failures. Bit-identity is out (faults perturb decisions), but the
// restored pipeline must still boot from the checkpoint, finish the
// stream, and close its accounting. Full-every-4 cadence makes the
// second checkpoint an incremental delta, so the chain path runs
// under faults too.
func TestKillRestoreUnderFaults(t *testing.T) {
	dir := t.TempDir()
	mkLive := func() *Live {
		in, err := fault.Parse("store.err=0.1,store.stall=200us@0.05,panic=0.02,model.fail=countvoter@0.2", 99)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ckptConfig(dir)
		cfg.CheckpointFullEvery = 4
		cfg.Fault = in
		cfg.WorkerRestartBackoff = time.Millisecond
		cfg.StoreRetryBackoff = 100 * time.Microsecond
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.workerRestartBudget = -1
		return l
	}

	b := mkLive()
	b.Start()
	feedRange(b, 20, 0, 2)
	if _, _, err := b.WriteCheckpoint(); err != nil {
		t.Fatalf("checkpoint under faults: %v", err)
	}
	feedRange(b, 20, 2, 3)
	if _, _, err := b.WriteCheckpoint(); err != nil {
		t.Fatalf("delta checkpoint under faults: %v", err)
	}
	b.Stop()

	c := mkLive()
	if c.Restore() == nil {
		t.Fatal("no restore under faults")
	}
	c.Start()
	feedRange(c, 20, 3, 6)
	// Drain the restored journal backlog plus the suffix, then require
	// the accounting to close.
	settle(t, c, 10*time.Second)
	c.Stop()
	assertAccounting(t, c)
}

// compareTraces asserts two per-flow decision traces are
// bit-identical.
func compareTraces(t *testing.T, got, want map[string][]string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decided %d flows, reference %d", label, len(got), len(want))
	}
	for key, wantSeq := range want {
		gotSeq := got[key]
		if len(gotSeq) != len(wantSeq) {
			t.Errorf("%s: flow %s: %d predictions vs reference %d\n got: %v\nwant: %v",
				label, key, len(gotSeq), len(wantSeq), gotSeq, wantSeq)
			continue
		}
		for i := range wantSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Errorf("%s: flow %s decision %d diverged:\n got: %s\nwant: %s",
					label, key, i, gotSeq[i], wantSeq[i])
			}
		}
	}
}

// referenceRun processes the full stream uninterrupted and returns
// its per-flow decision trace and prediction count.
func referenceRun(t *testing.T, nFlows, total int) (map[string][]string, int) {
	t.Helper()
	a := startLive(t, ckptConfig(t.TempDir()))
	feedRange(a, nFlows, 0, total)
	settle(t, a, 5*time.Second)
	a.Stop()
	return predTrace(a), len(logged(a))
}

// finishRestored feeds the stream suffix [from, total) into a
// restored run, waits for the full prediction log, and checks its
// accounting closes.
func finishRestored(t *testing.T, c *Live, nFlows, from, total, wantPreds int) {
	t.Helper()
	c.Start()
	feedRange(c, nFlows, from, total)
	settle(t, c, 5*time.Second)
	if len(logged(c)) < wantPreds {
		t.Fatalf("restored run produced %d predictions, reference %d", len(logged(c)), wantPreds)
	}
	c.Stop()
	assertAccounting(t, c)
}

// TestKillRestoreDeltaChain is the incremental-checkpoint acceptance
// test: a run that wrote a full snapshot and then two deltas, killed,
// restores the whole chain and finishes the stream with per-flow
// decision sequences bit-identical to an uninterrupted reference.
func TestKillRestoreDeltaChain(t *testing.T) {
	const nFlows, total = 30, 8
	cuts := []int{2, 4, 6}
	want, wantPreds := referenceRun(t, nFlows, total)

	dir := t.TempDir()
	cfg := ckptConfig(dir)
	cfg.CheckpointFullEvery = 8 // first write full, the rest deltas
	b := startLive(t, cfg)
	prev := 0
	for _, cut := range cuts {
		feedRange(b, nFlows, prev, cut)
		if _, _, err := b.WriteCheckpoint(); err != nil {
			t.Fatalf("checkpoint at cut %d: %v", cut, err)
		}
		prev = cut
	}
	b.Stop() // simulated kill

	// The directory must hold the expected chain shape: full(1) with
	// deltas 2 and 3 linked parent-by-parent.
	for seq, wantDelta := range map[uint64]bool{1: false, 2: true, 3: true} {
		m, err := checkpoint.ReadMeta(filepath.Join(dir, checkpoint.FileName(seq)))
		if err != nil {
			t.Fatalf("meta seq %d: %v", seq, err)
		}
		if m.Delta != wantDelta {
			t.Fatalf("seq %d: delta=%v, want %v", seq, m.Delta, wantDelta)
		}
		if wantDelta && m.BaseSeq != seq-1 {
			t.Fatalf("seq %d chains to %d, want %d", seq, m.BaseSeq, seq-1)
		}
	}

	c, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Restore()
	if r == nil {
		t.Fatal("no restore summary after booting from a delta chain")
	}
	if r.Seq != 3 {
		t.Fatalf("restored to seq %d, want the chain tip 3", r.Seq)
	}
	finishRestored(t, c, nFlows, cuts[len(cuts)-1], total, wantPreds)
	compareTraces(t, predTrace(c), want, "delta-chain restore")
}

// TestKillRestoreMidDeltaChain crashes the process mid-delta-write:
// the newest delta file is torn. Restore must fall back to the
// longest intact chain prefix — a consistent cut — and re-feeding the
// stream from that cut must again be bit-identical to the reference.
func TestKillRestoreMidDeltaChain(t *testing.T) {
	const nFlows, total = 30, 8
	cuts := []int{2, 4, 6}
	want, wantPreds := referenceRun(t, nFlows, total)

	dir := t.TempDir()
	cfg := ckptConfig(dir)
	cfg.CheckpointFullEvery = 8
	b := startLive(t, cfg)
	prev := 0
	for _, cut := range cuts {
		feedRange(b, nFlows, prev, cut)
		if _, _, err := b.WriteCheckpoint(); err != nil {
			t.Fatalf("checkpoint at cut %d: %v", cut, err)
		}
		prev = cut
	}
	b.Stop()

	// Tear the newest delta — the torn tail a crash mid-write leaves
	// behind if the rename raced the power cut.
	path3 := filepath.Join(dir, checkpoint.FileName(3))
	data, err := os.ReadFile(path3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path3, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := NewLive(cfg)
	if err != nil {
		t.Fatalf("restore with torn chain tip: %v", err)
	}
	r := c.Restore()
	if r == nil {
		t.Fatal("no restore summary")
	}
	if r.Seq != 2 {
		t.Fatalf("restored to seq %d, want the intact prefix tip 2", r.Seq)
	}
	// The fallback cut is cuts[1]: replay the stream from there.
	finishRestored(t, c, nFlows, cuts[1], total, wantPreds)
	compareTraces(t, predTrace(c), want, "mid-chain fallback restore")
}

// TestKillRestoreV2Compat pins the version-2 promise alongside v1: a
// v2 snapshot (per-shard prediction logs, no delta surface) restores
// into today's pipeline bit-identically.
func TestKillRestoreV2Compat(t *testing.T) {
	const nFlows, cut, total = 30, 3, 6
	want, wantPreds := referenceRun(t, nFlows, total)

	b := startLive(t, ckptConfig(t.TempDir()))
	feedRange(b, nFlows, 0, cut)
	snap, err := b.capture(false, nil)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	b.Stop()
	dir := t.TempDir()
	data := checkpoint.EncodeV2(snap)
	if err := os.WriteFile(filepath.Join(dir, checkpoint.FileName(snap.Seq)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := NewLive(ckptConfig(dir))
	if err != nil {
		t.Fatalf("restore from v2 snapshot: %v", err)
	}
	if c.Restore() == nil {
		t.Fatal("no restore summary after booting from a v2 checkpoint")
	}
	finishRestored(t, c, nFlows, cut, total, wantPreds)
	compareTraces(t, predTrace(c), want, "v2 restore")
}

// TestCaptureDeterministic is the vote-window ordering fix's pin: two
// captures of an unchanged pipeline are equal — as encoded bytes and
// as values, windows included. Before the fix, map iteration order
// leaked into Snapshot.Windows, so double-capture equality failed
// even though the encoder sorted the wire form.
func TestCaptureDeterministic(t *testing.T) {
	l := startLive(t, ckptConfig(t.TempDir()))
	feedRange(l, 20, 0, 4)
	settle(t, l, 5*time.Second)
	s1, err := l.capture(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := l.capture(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Stop()
	if len(s1.Windows) == 0 {
		t.Fatal("capture has no vote windows; the ordering property is vacuous")
	}
	// Seq and the wall-clock stamp legitimately differ; everything
	// else must not.
	s2.Seq = s1.Seq
	s2.TakenAtUnixNano = s1.TakenAtUnixNano
	if !reflect.DeepEqual(s1.Windows, s2.Windows) {
		t.Error("vote windows differ across double capture (map order leaked)")
	}
	if !bytes.Equal(checkpoint.Encode(s1), checkpoint.Encode(s2)) {
		t.Error("double capture not byte-identical")
	}
}

// TestEncodeOutsideBarrier is the regression pin for the tentpole: by
// the time WriteCheckpoint starts encoding (the post-capture hook),
// every shard's checkpoint barrier must already be released — encode
// and IO are not allowed back inside the frozen region.
func TestEncodeOutsideBarrier(t *testing.T) {
	l := startLive(t, ckptConfig(t.TempDir()))
	feedRange(l, 10, 0, 2)
	hookRan := false
	l.ckptPostCapture = func(*checkpoint.Snapshot) {
		hookRan = true
		// A read attempt fails only against the capture's write lock;
		// the running ingesters hold the barrier for read.
		for s := range l.ckptMu {
			if !l.ckptMu[s].TryRLock() {
				t.Errorf("shard %d barrier still held when encoding began", s)
				continue
			}
			l.ckptMu[s].RUnlock()
		}
	}
	if _, _, err := l.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("post-capture hook never ran")
	}
	if l.LastCheckpointBarrier() <= 0 {
		t.Error("barrier hold not recorded")
	}
	l.Stop()
}

// TestRestoreRejectsMismatchedPipeline pins the refusal paths: a
// checkpoint taken at one shard count, model bundle, or feature width
// must not load into a pipeline with another.
func TestRestoreRejectsMismatchedPipeline(t *testing.T) {
	dir := t.TempDir()
	b := startLive(t, ckptConfig(dir))
	feedRange(b, 10, 0, 2)
	if _, _, err := b.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	b.Stop()

	shardsCfg := ckptConfig(dir)
	shardsCfg.Shards = 2
	if _, err := NewLive(shardsCfg); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("2-shard pipeline accepted a 4-shard checkpoint: %v", err)
	}

	modelCfg := ckptConfig(dir)
	modelCfg.Models = []ml.Classifier{attackDetector()}
	if _, err := NewLive(modelCfg); err == nil || !strings.Contains(err.Error(), "bundle") {
		t.Errorf("different ensemble accepted the checkpoint: %v", err)
	}

	// A valid matching pipeline still loads after the refusals (the
	// file was never touched).
	ok, err := NewLive(ckptConfig(dir))
	if err != nil || ok.Restore() == nil {
		t.Fatalf("matching pipeline failed to restore: %v", err)
	}

	// An all-corrupt checkpoint dir is a hard error, not a silent
	// fresh boot.
	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, checkpoint.FileName(1)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	badCfg := ckptConfig(badDir)
	if _, err := NewLive(badCfg); err == nil {
		t.Error("pipeline booted silently from an all-corrupt checkpoint dir")
	}
}

// TestBootSweepsOrphanedCheckpointTemps: a checkpointing pipeline
// killed mid-write leaves its temp file in CheckpointDir, and nothing
// would ever remove it — each one is the size of a full checkpoint.
// The next boot removes it before restoring.
func TestBootSweepsOrphanedCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLive(ckptConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	a.Ingest(liveObs(7, 40, true, "synflood"))
	if _, _, err := a.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, ".ckpt-4242.tmp")
	if err := os.WriteFile(stray, []byte("half a checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	b, err := NewLive(ckptConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived boot (stat err %v)", err)
	}
	if r := b.Restore(); r == nil || r.Seq != 1 {
		t.Errorf("restore after the sweep = %+v, want the checkpoint written", r)
	}
}

// TestPeriodicCheckpointer proves CheckpointEvery writes checkpoints
// on its own and retention prunes old files.
func TestPeriodicCheckpointer(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptConfig(dir)
	cfg.CheckpointEvery = 20 * time.Millisecond
	l := startLive(t, cfg)
	feedRange(l, 10, 0, 3)
	if !waitFor(t, 5*time.Second, func() bool { return l.Checkpoints.Load() >= checkpointKeep+1 }) {
		t.Fatalf("periodic checkpointer wrote %d checkpoints", l.Checkpoints.Load())
	}
	l.Stop()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > checkpointKeep {
		t.Errorf("retention kept %d files, want <= %d", len(ents), checkpointKeep)
	}
	chain, _, ok, err := checkpoint.LatestChain(dir)
	if !ok || err != nil || chain[len(chain)-1].Shards != 4 {
		t.Fatalf("latest periodic checkpoint unusable: ok=%v err=%v", ok, err)
	}
}

// TestSweepBoundsStoreFlowCount pins the swept-flow leak fix: waves of
// short-lived flows (spoofed-source floods) cannot grow the pipeline
// without bound. A flow is one flow-table record — vote window
// included — and the store keeps no record of its own, so idle
// eviction empties every layer at once.
func TestSweepBoundsStoreFlowCount(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.FlowIdleTimeout = 10 * time.Millisecond
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: Ingest is synchronous and sweep is driven directly,
	// so the test is deterministic.
	const wave = 200
	for w := 0; w < 5; w++ {
		for f := 0; f < wave; f++ {
			l.Ingest(liveObs(uint16(1000+w*wave+f), 40, true, "synflood"))
		}
		if got := l.tables.Len(); got != wave {
			t.Fatalf("wave %d: table holds %d flows, want %d", w, got, wave)
		}
		time.Sleep(15 * time.Millisecond) // everything idles past the TTL
		l.sweep()
		if got := l.tables.Len(); got != 0 {
			t.Fatalf("wave %d: table kept %d records", w, got)
		}
	}
	if l.Evictions.Load() != 5*wave {
		t.Errorf("evictions = %d, want %d", l.Evictions.Load(), 5*wave)
	}
}

// TestSweepBoundsLateDecisionLeavesNoWindow: a decision for a flow no
// longer in the table — its row journaled, then the flow swept before
// the row was decided — is voted over a fresh window and leaves nothing
// behind, in Live and in the simulated Mechanism: the table is where a
// window lives, and it stays empty.
func TestSweepBoundsLateDecisionLeavesNoWindow(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		cfg := liveConfig(attackDetector())
		cfg.FlowIdleTimeout = 10 * time.Millisecond
		l := newLive(t, cfg)
		// Not started: the rows stay journaled, undecided, while the sweep
		// evicts their flows.
		const n = 20
		for f := 0; f < n; f++ {
			l.Ingest(liveObs(uint16(4000+f), 40, true, "synflood"))
		}
		time.Sleep(15 * time.Millisecond)
		l.sweep()
		if got := l.tables.Len(); got != 0 {
			t.Fatalf("sweep left %d flows", got)
		}
		l.Start()
		if !waitFor(t, 5*time.Second, func() bool { return l.DecisionCount() == n }) {
			t.Fatalf("%d of %d journaled rows decided after their flows were swept", l.DecisionCount(), n)
		}
		l.Stop()
		assertAccounting(t, l)
		if got := l.tables.Len(); got != 0 {
			t.Errorf("late decisions re-created %d flow records", got)
		}
		for _, d := range l.Decisions() {
			if d.Label != 1 {
				t.Errorf("late decision %+v: want the fresh window's one attack vote", d)
			}
		}
	})
	t.Run("mechanism", func(t *testing.T) {
		eng := netsim.NewEngine()
		cfg := testConfig(attackDetector())
		// Every record waits in the prediction queue longer than its
		// flow's idle timeout, so each is decided after its flow is gone:
		// the test sweeps the table every millisecond.
		cfg.ServiceTime = 20 * netsim.Millisecond
		m, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Table.IdleTimeout = netsim.Millisecond
		var sweep func()
		sweep = func() {
			m.Table.Sweep(eng.Now())
			eng.After(netsim.Millisecond, sweep)
		}
		eng.After(netsim.Millisecond, sweep)
		m.Start()
		const n = 5
		for f := 0; f < n; f++ {
			sport := uint16(4000 + f)
			eng.Schedule(0, func() { m.Observe(simObs(sport, 0, 40, true, "synflood")) })
		}
		eng.RunUntil(netsim.Second)
		if len(m.Decisions) != n {
			t.Fatalf("decisions = %d, want %d", len(m.Decisions), n)
		}
		if m.Table.Len() != 0 {
			t.Errorf("late decisions re-created %d flow records", m.Table.Len())
		}
		for _, d := range m.Decisions {
			if d.Label != 1 {
				t.Errorf("late decision %+v: want the fresh window's one attack vote", d)
			}
		}
	})
}

// flowWindows copies every flow-table record's vote window, by flow.
func flowWindows(l *Live) map[string][]int {
	out := make(map[string][]int)
	l.tables.Range(func(st *flow.State) bool {
		if st.Window.Len() > 0 {
			out[st.Key().String()] = st.Window.AppendTo(nil)
		}
		return true
	})
	return out
}

// TestKillRestoreWindowOnlyDelta: rows journaled before Start ride a
// full checkpoint undecided; Start decides them, which changes only
// their flows' vote windows. The next checkpoint — a delta — must carry
// those windows, so a restore from the chain gives the writer's
// windows.
func TestKillRestoreWindowOnlyDelta(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptConfig(dir)
	cfg.CheckpointFullEvery = 4
	a := newLive(t, cfg)
	const n = 12
	for i := 0; i < n; i++ {
		a.Ingest(liveObs(uint16(50+i%4), 40, true, "synflood"))
	}
	if _, _, err := a.WriteCheckpoint(); err != nil {
		t.Fatalf("full checkpoint: %v", err)
	}
	a.Start()
	if !waitFor(t, 5*time.Second, func() bool { return a.DecisionCount() == n }) {
		t.Fatalf("%d of %d journaled rows decided", a.DecisionCount(), n)
	}
	path, _, err := a.WriteCheckpoint()
	if err != nil {
		t.Fatalf("delta checkpoint: %v", err)
	}
	a.Stop()
	if m, err := checkpoint.ReadMeta(path); err != nil || !m.Delta {
		t.Fatalf("second checkpoint is not a delta: %+v, %v", m, err)
	}
	want := flowWindows(a)
	if len(want) != 4 {
		t.Fatalf("writer holds %d windows, want 4", len(want))
	}

	b, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := b.Restore(); r == nil || r.Seq != 2 || r.Windows != len(want) {
		t.Fatalf("restore summary %+v, want the delta (seq 2) with %d windows", r, len(want))
	}
	if got := flowWindows(b); !reflect.DeepEqual(got, want) {
		t.Errorf("restored windows %v, writer's %v", got, want)
	}
}

// TestKillRestoreIgnoresStoreRecordsAndOrphanWindows: a v3 snapshot
// holding a store record per flow (as writers that kept one did) and a
// window for a flow it has no record of restores to the same decisions
// as the identical snapshot without them. The orphan window belongs to
// a flow that arrives after the restore: kept, it would turn that
// flow's first decision to attack.
func TestKillRestoreIgnoresStoreRecordsAndOrphanWindows(t *testing.T) {
	const nFlows, cut, total, late = 12, 3, 6, 9000
	b := startLive(t, ckptConfig(t.TempDir()))
	feedRange(b, nFlows, 0, cut)
	snap, err := b.capture(false, nil)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	b.Stop()
	plain := checkpoint.Encode(snap)
	for s := range snap.ShardStates {
		sh := &snap.ShardStates[s]
		for _, st := range sh.Table {
			sh.StoreFlows = append(sh.StoreFlows, store.FlowRecord{
				Key: st.Key, Features: []float64{-1}, Updates: 1 << 20, Version: 7, AttackType: "bogus",
			})
		}
	}
	lateKey := liveObs(late, 1000, false, "benign").Key
	snap.Windows = append(snap.Windows, checkpoint.Window{Key: lateKey, Votes: []int{1, 1}})
	extra := checkpoint.Encode(snap)

	run := func(data []byte) map[string][]string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpoint.FileName(snap.Seq)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewLive(ckptConfig(dir))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if r := c.Restore(); r == nil || r.Flows != nFlows || r.Windows != nFlows {
			t.Fatalf("restore summary %+v, want %d flows, each with a window", r, nFlows)
		}
		c.Start()
		feedRange(c, nFlows, cut, total)
		for i := 0; i < 3; i++ {
			c.HandleReport(chaosReport(late, 1000, false, "benign"))
		}
		settle(t, c, 5*time.Second)
		c.Stop()
		assertAccounting(t, c)
		return predTrace(c)
	}
	want := run(plain)
	got := run(extra)
	compareTraces(t, got, want, "store records and an orphan window")
	if seq := want[lateKey.String()]; len(seq) != 3 || !strings.HasPrefix(seq[0], "label=0") {
		t.Errorf("late flow decided %v, want three decisions starting benign", seq)
	}
}

// TestKillRestoreDeltaDropsSweptFlowsWindow: a flow with a window in
// the base, swept and re-created (journaled, not yet decided) before
// the next delta, restores without the stale window — the re-created
// record has none, and the delta must say so.
func TestKillRestoreDeltaDropsSweptFlowsWindow(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptConfig(dir)
	cfg.CheckpointFullEvery = 4
	obs := liveObs(60, 40, true, "synflood")
	a := startLive(t, cfg)
	a.Ingest(obs)
	settle(t, a, 5*time.Second)
	if _, _, err := a.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	a.Stop()

	// Restored and not started: the flow keeps its window through a
	// full checkpoint, is swept, and comes back undecided.
	cfg.FlowIdleTimeout = 10 * time.Millisecond
	b, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(flowWindows(b)); got != 1 {
		t.Fatalf("restored %d windows, want 1", got)
	}
	if _, _, err := b.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	b.sweep()
	b.Ingest(obs)
	path, _, err := b.WriteCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := checkpoint.ReadMeta(path); err != nil || !m.Delta {
		t.Fatalf("checkpoint after the sweep is not a delta: %+v, %v", m, err)
	}

	c, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.tables.Len() != 1 || len(flowWindows(c)) != 0 {
		t.Errorf("restored %d flows with windows %v, want the re-created flow without one",
			c.tables.Len(), flowWindows(c))
	}
}

// TestRestoreRejectsInvalidWindow: a vote window holds only 0/1 votes,
// at most flow.MaxVoteWindow of them. A hand-built v3 snapshot whose
// window holds a 7 — which would skew every majority its flow takes —
// or one vote too many fails the restore, naming the flow; the same
// file with a valid window restores it.
func TestRestoreRejectsInvalidWindow(t *testing.T) {
	cfg := ckptConfig("")
	k := liveObs(70, 40, true, "synflood").Key
	file := func(votes []int) string {
		snap := &checkpoint.Snapshot{
			Shards:       cfg.Shards,
			Fingerprint:  bundleFingerprint(cfg.Models, cfg.Scaler, intFeatures),
			FeatureWidth: len(cfg.Scaler.Mean),
			Seq:          1,
			ShardStates:  make([]checkpoint.ShardState, cfg.Shards),
			Windows:      []checkpoint.Window{{Key: k, Votes: votes}},
		}
		snap.ShardStates[k.Shard(cfg.Shards)].Table = []flow.StateSnapshot{{Key: k, RegisteredAt: 1, LastAt: 1, Updates: 1}}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpoint.FileName(1)), checkpoint.Encode(snap), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, votes := range [][]int{{1, 7}, make([]int, flow.MaxVoteWindow+1)} {
		cfg.CheckpointDir = file(votes)
		if _, err := NewLive(cfg); err == nil || !strings.Contains(err.Error(), k.String()) {
			t.Errorf("window of %d votes %v: restore error %v, want one naming %s", len(votes), votes[:2], err, k)
		}
	}
	cfg.CheckpointDir = file([]int{1, 0})
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatalf("valid window: %v", err)
	}
	if r := l.Restore(); r == nil || r.Flows != 1 || r.Windows != 1 {
		t.Errorf("valid window: restore summary %+v, want one flow with its window", r)
	}
}
