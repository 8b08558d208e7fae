// Package prof is the bottleneck-attribution subsystem: it turns the
// runtime's mutex/block profiles into a report that names pipeline
// stages instead of stack frames, captures periodic profile snapshots
// into a bounded on-disk ring, and feeds both into the obs registry's
// /debug/attrib endpoint and diagnostic bundles.
//
// ROADMAP item 1 observed shard scaling flat from 0 to 8 shards while
// every contention counter read zero — the TryLock-based counters only
// see a held mutex at the instant of acquisition, and nothing mapped
// blocked time back to the stage that paid it. The runtime already
// records every contended mutex unlock and every blocking event; prof
// surfaces that record with pipeline names attached, so "what
// serializes the pipeline" is a measurement, not a guess.
package prof

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Row is one attributed stack in a contention report.
type Row struct {
	// Kind is "mutex" (lock contention: time waiters spent blocked on
	// a sync primitive, recorded at Unlock) or "block" (time goroutines
	// spent blocked on channels and sync primitives, recorded when the
	// goroutine resumes).
	Kind string `json:"kind"`
	// Stage is the pipeline stage the stack attributes to (see
	// PipelineStages), or "other".
	Stage string `json:"stage"`
	// Count is the number of sampled events, scaled by the sampling
	// rate for mutex rows; Seconds the blocked time they cover.
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	// Frames is the stack, innermost first, trimmed of runtime/sync
	// plumbing frames.
	Frames []string `json:"frames,omitempty"`
}

// stackKey identifies a row across reports for Diff.
func (r Row) stackKey() string {
	return r.Kind + "|" + strings.Join(r.Frames, "<")
}

// Report is a contention-attribution snapshot: the cumulative mutex
// and block profiles since process start (or a Diff of two snapshots),
// mapped to pipeline stages.
type Report struct {
	// MutexFraction and BlockRateNs record the sampling configuration
	// the rows were captured under.
	MutexFraction int `json:"mutex_fraction"`
	BlockRateNs   int `json:"block_rate_ns"`
	// Rows are sorted by Seconds descending.
	Rows []Row `json:"rows"`
}

// StageRule maps a substring of a stack frame to a pipeline stage
// name. Rules are tried in order, each against every frame (innermost
// outward); the first rule with a matching frame wins. Rule order is
// therefore priority: named pipeline functions come before the
// generic runtime channel buckets, so "blocked in select inside the
// shard loop" attributes to idle, not to the catch-all channel bucket.
type StageRule struct {
	Match string
	Stage string
}

// StageIdle is the stage of a goroutine parked waiting for work — a
// shard on its empty queue — which is not contention: StageTotals and
// Format leave it out of the blocked-time ranking and report it apart.
const StageIdle = "idle"

// PipelineStages are the attribution rules for this repository's
// pipeline: the known serialization suspects first (the shared
// prediction log, per-shard store mutexes), then coarser
// package-level buckets.
func PipelineStages() []StageRule {
	return []StageRule{
		{"store.(*ShardedDB).AppendPrediction", "store.prediction_log"},
		{"store.(*DB).AppendPrediction", "store.prediction_log"},
		{"store.(*ShardedDB).Predictions", "store.prediction_merge"},
		{"store.(*MergeCursor)", "store.prediction_merge"},
		{"store.(*DB).UpsertFlow", "store.shard_upsert"},
		{"store.(*DB).PollUpdates", "store.journal_poll"},
		{"store.(*DB).TrimJournal", "store.journal_poll"},
		{"store.(*DB).JournalLen", "store.journal_scan"},
		{"flow.(*ShardedTable)", "flow.table"},
		{"core.(*Live).finish", "core.finish"},
		{"core.(*Live).fold", "core.ingest"},
		// Triage rules precede core.predict: the scorer's triage pass
		// runs under predictBatch, so a stack blocked under the sketch
		// veto or the cascade attributes to the triage stage, not the
		// generic predict bucket.
		{"core.(*scorer).triage", "core.triage"},
		{"ml.(*Cascade)", "core.triage"},
		{"sketch.(*Sketch)", "core.triage"},
		{"core.(*Live).predictBatch", "core.predict"},
		// A shard's pass, outside the named steps above: waiting for its
		// barrier (a capture) or its run lock (a direct Ingest, the
		// sweeper, a Ledger reading). It runs under the shard loop's or
		// a direct Ingest's frames, so its rule precedes theirs.
		{"core.(*Live).burst", "core.shard"},
		// A producer blocked on a full shard queue: backpressure.
		{"core.(*Live).IngestAsync", "core.ingest_demux"},
		// The shard loop outside a pass is parked on its queue or its
		// restart backoff: waiting for work.
		{"core.(*Live).runShard", StageIdle},
		{"telemetry.", "telemetry.ingest"},
		// Harness and runtime background stacks block on channels too;
		// keep them out of the channel buckets.
		{"testing.", "other"},
		{"runtime.unique_runtime_registerUniqueMapCleanup", "other"},
		{"runtime.gcBgMarkWorker", "other"},
		{"runtime.chanrecv", "chan.recv"},
		{"runtime.chansend", "chan.send"},
		{"runtime.selectgo", "chan.select"},
		{"obs.(*Journeys)", "obs.journeys"},
		{"obs.(*EventLog)", "obs.events"},
		{"obs.", "obs.scrape"},
	}
}

// attribute maps a stack to its stage: rules in priority order, each
// tried against every frame, first rule with a matching frame wins.
func attribute(frames []string, rules []StageRule) string {
	for _, r := range rules {
		for _, f := range frames {
			if strings.Contains(f, r.Match) {
				return r.Stage
			}
		}
	}
	return "other"
}

// cyclesPerSecond is parsed once from the runtime's own profile
// header (the "cycles/second=N" field of the debug=1 text format);
// mutex/block profile records count blocked time in these cycles.
var (
	cpsOnce sync.Once
	cps     float64
)

func cyclesPerSecond() float64 {
	cpsOnce.Do(func() {
		cps = 1e9 // safe fallback: treat cycles as nanoseconds
		p := pprof.Lookup("mutex")
		if p == nil {
			return
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 1); err != nil {
			return
		}
		const marker = "cycles/second="
		s := buf.String()
		i := strings.Index(s, marker)
		if i < 0 {
			return
		}
		s = s[i+len(marker):]
		if j := strings.IndexAny(s, " \n"); j >= 0 {
			s = s[:j]
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			cps = v
		}
	})
	return cps
}

// trimFrames drops the innermost runtime/sync plumbing (sync.(*Mutex).
// Lock, runtime.gopark, ...) so the first frame shown is the caller
// that actually waited, and caps the stack at eight frames.
func trimFrames(frames []string) []string {
	i := 0
	for i < len(frames)-1 {
		f := frames[i]
		if strings.HasPrefix(f, "sync.") || strings.HasPrefix(f, "internal/sync.") ||
			(strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "runtime.chan") &&
				!strings.HasPrefix(f, "runtime.selectgo")) {
			i++
			continue
		}
		break
	}
	out := frames[i:]
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

// symbolize resolves one profile record's PCs to function names.
func symbolize(stk []uintptr) []string {
	frames := runtime.CallersFrames(stk)
	var out []string
	for {
		f, more := frames.Next()
		if f.Function != "" {
			out = append(out, shortFunc(f.Function)+":"+strconv.Itoa(f.Line))
		}
		if !more {
			break
		}
	}
	return out
}

// shortFunc drops the module path prefix from a fully qualified
// function name: "github.com/amlight/intddos/internal/store.(*DB).
// UpsertFlow" becomes "store.(*DB).UpsertFlow".
func shortFunc(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		return fn[i+1:]
	}
	return fn
}

// collect reads one runtime profile via read (runtime.MutexProfile or
// runtime.BlockProfile), growing the buffer until it fits.
func collect(read func([]runtime.BlockProfileRecord) (int, bool)) []runtime.BlockProfileRecord {
	n, _ := read(nil)
	for {
		recs := make([]runtime.BlockProfileRecord, n+50)
		got, ok := read(recs)
		if ok {
			return recs[:got]
		}
		n = got
	}
}

// Attribution captures the current cumulative mutex and block
// profiles and maps every stack to a pipeline stage. topN <= 0 keeps
// every row. rules == nil selects PipelineStages.
func Attribution(topN int, rules []StageRule) *Report {
	if rules == nil {
		rules = PipelineStages()
	}
	rep := &Report{
		MutexFraction: runtime.SetMutexProfileFraction(-1),
		BlockRateNs:   blockRate(),
	}
	cps := cyclesPerSecond()

	// Mutex profile: each record's Count/Cycles are sampled 1-in-
	// fraction, so scale back up to estimated totals.
	scale := int64(rep.MutexFraction)
	if scale < 1 {
		scale = 1
	}
	byKey := make(map[string]int)
	addRecord := func(kind string, rec runtime.BlockProfileRecord, mult int64) {
		if rec.Count == 0 && rec.Cycles == 0 {
			return
		}
		frames := trimFrames(symbolize(rec.Stack()))
		row := Row{
			Kind:    kind,
			Stage:   attribute(frames, rules),
			Count:   rec.Count * mult,
			Seconds: float64(rec.Cycles*mult) / cps,
			Frames:  frames,
		}
		k := row.stackKey()
		if i, ok := byKey[k]; ok {
			rep.Rows[i].Count += row.Count
			rep.Rows[i].Seconds += row.Seconds
			return
		}
		byKey[k] = len(rep.Rows)
		rep.Rows = append(rep.Rows, row)
	}
	for _, rec := range collect(runtime.MutexProfile) {
		addRecord("mutex", rec, scale)
	}
	for _, rec := range collect(runtime.BlockProfile) {
		addRecord("block", rec, 1)
	}

	sort.SliceStable(rep.Rows, func(i, j int) bool { return rep.Rows[i].Seconds > rep.Rows[j].Seconds })
	if topN > 0 && len(rep.Rows) > topN {
		rep.Rows = rep.Rows[:topN]
	}
	return rep
}

// Diff returns after minus before, row by stack, dropping rows that
// did not grow. Both reports must be un-truncated (topN <= 0) for the
// subtraction to be exact.
func Diff(before, after *Report) *Report {
	prev := make(map[string]Row, len(before.Rows))
	for _, r := range before.Rows {
		prev[r.stackKey()] = r
	}
	out := &Report{MutexFraction: after.MutexFraction, BlockRateNs: after.BlockRateNs}
	for _, r := range after.Rows {
		if p, ok := prev[r.stackKey()]; ok {
			r.Count -= p.Count
			r.Seconds -= p.Seconds
		}
		if r.Count <= 0 && r.Seconds <= 0 {
			continue
		}
		if r.Seconds < 0 {
			r.Seconds = 0
		}
		out.Rows = append(out.Rows, r)
	}
	sort.SliceStable(out.Rows, func(i, j int) bool { return out.Rows[i].Seconds > out.Rows[j].Seconds })
	return out
}

// Top returns the first n rows (all rows when n <= 0).
func (r *Report) Top(n int) []Row {
	if n <= 0 || n > len(r.Rows) {
		n = len(r.Rows)
	}
	return r.Rows[:n]
}

// StageTotals aggregates rows by (kind, stage), sorted by blocked
// seconds descending. Idle rows are not blocked time and are left out.
func (r *Report) StageTotals() []Row {
	idx := make(map[string]int)
	var out []Row
	for _, row := range r.Rows {
		if row.Stage == StageIdle {
			continue
		}
		k := row.Kind + "|" + row.Stage
		if i, ok := idx[k]; ok {
			out[i].Count += row.Count
			out[i].Seconds += row.Seconds
			continue
		}
		idx[k] = len(out)
		out = append(out, Row{Kind: row.Kind, Stage: row.Stage, Count: row.Count, Seconds: row.Seconds})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

// Format renders the report as the /debug/attrib text: stage totals
// first, then the top stacks, then the idle total kept out of both.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# contention attribution (mutex fraction 1/%d, block rate %dns)\n",
		r.MutexFraction, r.BlockRateNs)
	if len(r.Rows) == 0 {
		b.WriteString("# no blocked-time samples recorded\n")
		return b.String()
	}
	b.WriteString("\n== blocked time by pipeline stage ==\n")
	fmt.Fprintf(&b, "%-6s %-24s %12s %10s\n", "KIND", "STAGE", "SECONDS", "COUNT")
	for _, row := range r.StageTotals() {
		fmt.Fprintf(&b, "%-6s %-24s %12.6f %10d\n", row.Kind, row.Stage, row.Seconds, row.Count)
	}
	b.WriteString("\n== top stacks by blocked time ==\n")
	idle := 0.0
	for _, row := range r.Rows {
		if row.Stage == StageIdle {
			idle += row.Seconds
			continue
		}
		fmt.Fprintf(&b, "%-6s %-24s %12.6f %10d  %s\n",
			row.Kind, row.Stage, row.Seconds, row.Count, strings.Join(row.Frames, " < "))
	}
	fmt.Fprintf(&b, "\n# %s (parked waiting for work, not ranked): %.6f seconds\n", StageIdle, idle)
	return b.String()
}
