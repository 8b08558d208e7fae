package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/ml/sketch"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

// Span names, one per module function the replay calls. A span's name
// is its layer: <module>.<call>.
const (
	spReplay = iota // the root: the replay loop itself
	spDecode
	spFromINT
	spSketchUpdate
	spObserve
	spUpsert
	spPoll
	spScale
	spTriage
	spEnsemble
	spForest
	spNeural
	spBayes
	spAppendPrediction
	spSweep
	spDelete
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"harness.replay",
	"telemetry.decode", "flow.from_int", "ml.sketch_update", "flow.observe", "store.upsert",
	"store.poll", "ml.scale", "ml.triage", "ml.ensemble", "ml.forest", "ml.neural", "ml.bayes",
	"store.append_prediction", "flow.sweep", "store.delete",
}

// span is one call into a layer. row, the index of the newest row
// ingested when the call was made, is what the spans of one row share.
type span struct {
	name       uint8
	parent     int32 // index of the span that caused this one; -1 for the root
	row        int32
	start, end int64 // ns since the tracer's start
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
	// inner is what an empty span measures as its own duration and
	// outer what recording it costs its parent; self time is corrected by
	// both.
	inner, outer int64
}

func newTracer(capacity int) *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(spReplay, -1, 0))
	}
	t.outer = int64(time.Since(start)) / n
	for _, s := range t.spans {
		t.inner += s.end - s.start
	}
	t.inner /= n
	t.spans = t.spans[:0]
	return t
}

func (t *tracer) begin(name uint8, parent int32, row int) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, row: int32(row), start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.t0)) }

// selfTimes returns, by span name, the summed self time and the number
// of spans. A span's self time is its duration less the part its child
// spans cover, less what the clock reads cost.
func (t *tracer) selfTimes() (ns [numSpanNames]int64, calls [numSpanNames]int) {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start - t.inner
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start + t.outer - t.inner
		}
	}
	for i, s := range t.spans {
		if self[i] > 0 {
			ns[s.name] += self[i]
		}
		calls[s.name]++
	}
	return ns, calls
}

// writeFile writes the spans as one JSON object: the names, then one
// [name, parent, row, start_ns, end_ns] array per span, parent being an
// index into the same list.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"clock_read_ns\": %d, \"span_cost_ns\": %d, \"names\": [", t.inner, t.outer)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteString(", ")
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"fields\": [\"name\", \"parent\", \"row\", \"start_ns\", \"end_ns\"],\n\"spans\": [\n")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.name, s.parent, s.row, s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// Stage-0 sketch policy, as internal/core/triage.go fixes it.
const (
	triageHeavyHitterFrac = 0.02
	triageEntropyFloor    = 0.25
	triageMinSample       = 512
)

// stages is the pipeline's module functions, wired the way NewLive wires
// them for one workload, without the goroutines, channels and timers
// between them.
type stages struct {
	cfg      core.LiveConfig
	nShards  int
	features flow.FeatureSet
	tables   *flow.ShardedTable
	db       store.Store
	sketches []*sketch.Sketch // nil with triage off
	cascade  *ml.Cascade      // nil with triage off
	models   []ml.Classifier
	scaler   *ml.StandardScaler
}

func newStages(w workload, p *pool, models []ml.Classifier) *stages {
	st := &stages{cfg: liveConfig(w, p), features: flow.INTFeatures(), models: models, scaler: p.scaler}
	st.nShards = st.cfg.Shards
	if st.nShards < 1 {
		st.nShards = 1
		st.db = store.New()
	} else {
		st.db = store.NewSharded(st.nShards)
	}
	st.tables = flow.NewShardedTable(st.nShards)
	st.tables.SetIdleTimeout(netsim.Time(st.cfg.FlowIdleTimeout))
	if st.cfg.PredictBatch < 1 {
		st.cfg.PredictBatch = 1
	}
	if st.cfg.Triage {
		for _, m := range p.models {
			if pm, ok := m.(ml.BatchProbaClassifier); ok && m.Name() == "RF" {
				st.cascade = &ml.Cascade{Stages: []ml.CascadeStage{{Name: "RF", Model: pm, Threshold: st.cfg.TriageThreshold}}}
			}
		}
		for i := 0; i < st.nShards; i++ {
			st.sketches = append(st.sketches, sketch.New(0, 0))
		}
	}
	return st
}

// timedModel records a span around each batch an ensemble member
// scores, as a child of the ensemble span that caused it.
type timedModel struct {
	ml.Classifier
	name uint8
	rp   *replayed
}

func (m timedModel) PredictBatch(X [][]float64) []int {
	sp := m.rp.tr.begin(m.name, m.rp.parent, m.rp.row)
	out := ml.PredictBatch(m.Classifier, X)
	m.rp.tr.end(sp)
	return out
}

// replayed is a finished layer replay.
type replayed struct {
	tr   *tracer
	rows int

	created, triaged, exited, evicted int
	tableLen                          int

	parent int32 // the span a timedModel's span is a child of
	row    int
}

var modelSpan = map[string]uint8{"RF": spForest, "MLP": spNeural, "GNB": spBayes}

// replay pushes the first rows rows of s through each module's public
// functions in pipeline order, on one goroutine, with a span around
// every call: per row decode → FromINT → sketch update → observe and
// features → upsert; per poll interval's worth of rows, per shard, poll
// and trim, then per micro-batch scale → triage → ensemble votes (one
// child span per model) → append prediction; per sweep interval, sweep
// (one child span per store delete). Time is the stream's schedule, not
// the wall clock, so idle eviction sees the gaps the paced run sees.
func replay(w workload, p *pool, s *stream, rows int) *replayed {
	if rows > s.rows() {
		rows = s.rows()
	}
	rp := &replayed{tr: newTracer(rows * 12), rows: rows}
	tr := rp.tr
	models := make([]ml.Classifier, len(p.models))
	for i, m := range p.models {
		models[i] = timedModel{Classifier: m, name: modelSpan[m.Name()], rp: rp}
	}
	st := newStages(w, p, models)
	root := tr.begin(spReplay, -1, 0)
	st.tables.SetOnEvict(func(k flow.Key) {
		sp := tr.begin(spDelete, rp.parent, rp.row)
		st.db.DeleteFlow(k)
		tr.end(sp)
	})

	perTick := w.rate / int(time.Second/tick)
	perPoll := perTick * 5 // rows per default PollInterval
	perSweep := 0
	if st.cfg.FlowIdleTimeout > 0 {
		perSweep = w.rate * int(st.cfg.SweepInterval/time.Millisecond) / 1000
	}
	const pollBatch = 256 // LiveConfig.PollBatch's default
	const epoch = netsim.Time(time.Hour)
	cursors := make([]uint64, st.nShards)
	var (
		feats, scaled [][]float64
		sus           []bool
		sub           [][]float64
		cs            ml.CascadeScratch
		vs            ml.VoteScratch
	)

	score := func(recs []store.FlowRecord) {
		feats = feats[:0]
		for i := range recs {
			feats = append(feats, recs[i].Features)
		}
		sp := tr.begin(spScale, root, rp.row)
		scaled = st.scaler.TransformBatch(scaled, feats)
		tr.end(sp)
		sub = append(sub[:0], scaled...)
		var stage []int // per row, the cascade stage that decided it; nil or 0: the ensemble does
		if st.cascade != nil {
			sp = tr.begin(spTriage, root, rp.row)
			sus = sus[:0]
			for i := range recs {
				sk := st.sketches[recs[i].Key.Shard(st.nShards)]
				sus = append(sus, sk.Suspicious(recs[i].Key.Hash(), triageHeavyHitterFrac, triageEntropyFloor, triageMinSample))
			}
			stage, _ = st.cascade.TriageBatch(scaled, sus, &cs)
			tr.end(sp)
			sub = sub[:0]
			for i, exitedAt := range stage {
				if exitedAt == 0 {
					sub = append(sub, scaled[i])
				}
			}
			rp.triaged += len(recs)
			rp.exited += len(recs) - len(sub)
		}
		var votes [][]int
		if len(sub) > 0 {
			sp = tr.begin(spEnsemble, root, rp.row)
			rp.parent = sp
			votes, _ = ml.EnsembleVotesInto(&vs, st.models, sub)
			tr.end(sp)
		}
		voted := 0
		for i := range recs {
			var v []int
			if stage == nil || stage[i] == 0 {
				v = votes[voted]
				voted++
			}
			sp = tr.begin(spAppendPrediction, root, rp.row)
			st.db.AppendPrediction(store.PredictionRecord{
				Key: recs[i].Key, At: recs[i].UpdatedAt, Votes: v,
				Truth: recs[i].Truth, AttackType: recs[i].AttackType,
			})
			tr.end(sp)
		}
	}

	for row := 0; row < rows; row++ {
		rp.row = row
		at := epoch + netsim.Time(row/perTick)*netsim.Time(tick)

		sp := tr.begin(spDecode, root, row)
		rep, err := telemetry.DecodeReport(s.bytes(row))
		tr.end(sp)
		if err != nil {
			panic(fmt.Sprintf("row %d does not decode: %v", row, err))
		}
		sp = tr.begin(spFromINT, root, row)
		pi := flow.FromINT(rep, at)
		tr.end(sp)
		if st.sketches != nil {
			sp = tr.begin(spSketchUpdate, root, row)
			st.sketches[pi.Key.Shard(st.nShards)].Update(pi.Key.Hash())
			tr.end(sp)
		}
		var (
			f         []float64
			reg, last netsim.Time
			updates   int
		)
		sp = tr.begin(spObserve, root, row)
		created := st.tables.ObserveFunc(pi, func(fs *flow.State) {
			f = fs.Features(nil, st.features)
			reg, last, updates = fs.RegisteredAt, fs.LastAt, fs.Updates
		})
		tr.end(sp)
		if created {
			rp.created++
		}
		sp = tr.begin(spUpsert, root, row)
		st.db.UpsertFlow(pi.Key, f, reg, last, updates, pi.Label, pi.AttackType)
		tr.end(sp)

		if (row+1)%perPoll == 0 || row+1 == rows {
			for shard := range cursors {
				sp = tr.begin(spPoll, root, row)
				recs, cur := st.db.PollShard(shard, cursors[shard], pollBatch)
				st.db.TrimShard(shard, cur)
				tr.end(sp)
				cursors[shard] = cur
				for lo := 0; lo < len(recs); lo += st.cfg.PredictBatch {
					hi := lo + st.cfg.PredictBatch
					if hi > len(recs) {
						hi = len(recs)
					}
					score(recs[lo:hi])
				}
			}
		}
		if perSweep > 0 && (row+1)%perSweep == 0 {
			sp = tr.begin(spSweep, root, row)
			rp.parent = sp
			rp.evicted += st.tables.Sweep(at)
			tr.end(sp)
		}
	}
	tr.end(root)
	rp.tableLen = st.tables.Len()
	return rp
}

// busyPerRow is the summed self time of every layer span, in ns per row
// replayed: what the modules' own functions cost, with nothing between
// them.
func (rp *replayed) busyPerRow() float64 {
	ns, _ := rp.tr.selfTimes()
	var sum int64
	for name, v := range ns {
		if name != spReplay {
			sum += v
		}
	}
	return float64(sum) / float64(rp.rows)
}

// metrics fills in the per-layer metrics the replay measures.
func (rp *replayed) metrics(m map[string]float64) {
	ns, calls := rp.tr.selfTimes()
	perRow := func(name int) float64 { return float64(ns[name]) / float64(rp.rows) }
	perCall := func(name int) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(ns[name]) / float64(calls[name])
	}
	m["telemetry.decode_ns_per_row"] = perRow(spDecode)
	m["flow.from_int_ns_per_row"] = perRow(spFromINT)
	m["flow.observe_ns_per_row"] = perRow(spObserve)
	m["flow.created_share"] = float64(rp.created) / float64(rp.rows)
	m["flow.sweep_ms_per_pass"] = (perCall(spSweep) + float64(ns[spDelete])/float64(max(1, calls[spSweep]))) / 1e6
	m["flow.table_len_end"] = float64(rp.tableLen)
	m["store.upsert_ns_per_row"] = perRow(spUpsert)
	m["store.poll_ns_per_row"] = perRow(spPoll)
	m["store.append_prediction_ns_per_row"] = perRow(spAppendPrediction)
	m["store.delete_ns_per_flow"] = perCall(spDelete)
	m["ml.scale_ns_per_row"] = perRow(spScale)
	m["ml.forest_ns_per_row"] = perRow(spForest)
	m["ml.neural_ns_per_row"] = perRow(spNeural)
	m["ml.bayes_ns_per_row"] = perRow(spBayes)
	m["ml.ensemble_ns_per_row"] = perRow(spEnsemble) + perRow(spForest) + perRow(spNeural) + perRow(spBayes)
	m["ml.triage_ns_per_row"] = perRow(spTriage)
	m["ml.sketch_update_ns_per_row"] = perRow(spSketchUpdate)
	if rp.triaged > 0 {
		m["ml.triage_exit_share"] = float64(rp.exited) / float64(rp.triaged)
	}
}

// layerAllocs counts the heap objects four layers allocate per row.
// Spans cannot carry this: reading the allocation count stops the world.
// So the head of the stream goes through the layers one layer at a time,
// each layer's outputs kept for the next, with the count read around
// each layer.
func layerAllocs(w workload, p *pool, s *stream, m map[string]float64) {
	n := 4096
	if n > s.rows() {
		n = s.rows()
	}
	st := newStages(w, p, p.models)
	mallocs := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	reps := make([]*telemetry.Report, n)
	m["telemetry.decode_allocs_per_row"] = mallocs(func() {
		for i := range reps {
			reps[i], _ = telemetry.DecodeReport(s.bytes(i))
		}
	})
	type observed struct {
		pi        flow.PacketInfo
		f         []float64
		reg, last netsim.Time
		updates   int
	}
	obs := make([]observed, n)
	for i, rep := range reps {
		obs[i].pi = flow.FromINT(rep, netsim.Time(time.Hour)+netsim.Time(i))
	}
	m["flow.observe_allocs_per_row"] = mallocs(func() {
		for i := range obs {
			o := &obs[i]
			st.tables.ObserveFunc(o.pi, func(fs *flow.State) {
				o.f = fs.Features(nil, st.features)
				o.reg, o.last, o.updates = fs.RegisteredAt, fs.LastAt, fs.Updates
			})
		}
	})
	m["store.upsert_allocs_per_row"] = mallocs(func() {
		for i := range obs {
			o := &obs[i]
			st.db.UpsertFlow(o.pi.Key, o.f, o.reg, o.last, o.updates, o.pi.Label, o.pi.AttackType)
		}
	})
	feats := make([][]float64, n)
	for i := range obs {
		feats[i] = obs[i].f
	}
	scaled := st.scaler.TransformBatch(nil, feats)
	var vs ml.VoteScratch
	m["ml.ensemble_allocs_per_row"] = mallocs(func() {
		for lo := 0; lo < n; lo += st.cfg.PredictBatch {
			ml.EnsembleVotesInto(&vs, st.models, scaled[lo:min(n, lo+st.cfg.PredictBatch)])
		}
	})
}
