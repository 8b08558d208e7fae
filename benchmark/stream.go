package main

import (
	"fmt"
	"math/rand"
	"net/netip"

	"github.com/amlight/intddos/internal/experiment"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/testbed"
	"github.com/amlight/intddos/internal/traffic"
)

const (
	// captureSeed fixes the ScaleTiny capture and the ensemble fit, so
	// -seed varies only the generated stream: every run scores with the
	// same models.
	captureSeed = 42
	// trainRows sizes the training subsample. The MLP's fit dominates
	// set-up; 2 000 rows keep one set-up near 1.5 s on this box.
	trainRows = 2000
	// steadyFlows is how many long-lived flows the three steady
	// workloads keep open; attackShare of them replay attack templates.
	steadyFlows = 8000
	attackShare = 0.05
)

// template is one captured flow: its reports in capture order.
type template struct {
	reports []*telemetry.Report
	attack  bool
}

// pool is what one capture yields: the flows the streams replay and the
// ensemble fitted on the capture's own feature rows.
type pool struct {
	benign, attack []template // first-seen order
	models         []ml.Classifier
	scaler         *ml.StandardScaler
}

// buildPool replays the ScaleTiny workload through the simulated
// testbed, groups the collector's reports by flow and fits
// MLP+RF+GNB on a subsample of the feature rows the capture produced.
func buildPool() (*pool, error) {
	w := traffic.Build(traffic.ConfigForScale(traffic.ScaleTiny, captureSeed))
	if len(w.Records) == 0 {
		return nil, fmt.Errorf("empty %s workload", traffic.ScaleTiny)
	}
	tb := testbed.New(testbed.Config{Seed: captureSeed})
	set := flow.INTFeatures()
	table := flow.NewTable()
	data := &ml.Dataset{Names: set.Names()}
	byKey := make(map[flow.Key]int)
	var templates []template
	tb.Collector.OnReport = func(r *telemetry.Report, at netsim.Time) {
		pi := flow.FromINT(r, at)
		st, _ := table.Observe(pi)
		label := 0
		if pi.Label {
			label = 1
		}
		data.Append(st.Features(nil, set), label, ml.RowMeta{At: int64(at), Type: pi.AttackType})
		i, ok := byKey[pi.Key]
		if !ok {
			i = len(templates)
			byKey[pi.Key] = i
			templates = append(templates, template{attack: pi.Label})
		}
		templates[i].reports = append(templates[i].reports, r)
	}
	tb.Replayer(w.Records).Start()
	tb.Run()

	p := &pool{scaler: &ml.StandardScaler{}}
	for _, t := range templates {
		if t.attack {
			p.attack = append(p.attack, t)
		} else {
			p.benign = append(p.benign, t)
		}
	}
	sub := data.Subsample(trainRows, captureSeed)
	z, err := p.scaler.FitTransform(sub.X)
	if err != nil {
		return nil, fmt.Errorf("fit scaler: %w", err)
	}
	for _, spec := range experiment.StageTwoModels() {
		m := spec.New(captureSeed)
		if err := m.Fit(z, sub.Y); err != nil {
			return nil, fmt.Errorf("fit %s: %w", spec.Name, err)
		}
		p.models = append(p.models, m)
	}
	return p, nil
}

// longest returns the templates with at least min reports.
func longest(ts []template, min int) []template {
	var out []template
	for _, t := range ts {
		if len(t.reports) >= min {
			out = append(out, t)
		}
	}
	return out
}

// stream is one workload's materialised input: the wire bytes the
// program receives and the send log the harness joins decisions to.
// The program never sees flowOf, seqOf or truth.
type stream struct {
	wire []byte
	off  []uint32 // row i is wire[off[i]:off[i+1]]

	flowOf []int32 // row → flow index
	seqOf  []int32 // row → position among its flow's rows
	truth  []bool  // row → ground-truth label

	keys []flow.Key // flow index → five-tuple
	// rowAt is flowStart-indexed: the rows of flow f, in send order, are
	// rowAt[flowStart[f]:flowStart[f+1]].
	flowStart []int32
	rowAt     []int32
}

func (s *stream) rows() int { return len(s.flowOf) }

func (s *stream) bytes(row int) []byte { return s.wire[s.off[row]:s.off[row+1]] }

// materialise draws rows from the pool for workload w. Steady workloads
// keep steadyFlows flows open, each replaying one captured flow's
// reports in capture order under a fresh source address, and pick the
// flow of each row uniformly; churn opens a new five-tuple every two
// rows. The same seed gives the same bytes.
func materialise(p *pool, w workload, seed int64, rows int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{
		wire:   make([]byte, 0, rows*80),
		off:    make([]uint32, 1, rows+1),
		flowOf: make([]int32, 0, rows),
		seqOf:  make([]int32, 0, rows),
		truth:  make([]bool, 0, rows),
	}
	var tmplOf []*template
	addFlow := func(t *template) int32 {
		f := len(s.keys)
		r := t.reports[0]
		// The flow index makes the address unique; the seed moves the
		// flows across shards from run to run.
		src := netip.AddrFrom4([4]byte{byte(100 + uint64(seed)%100), byte(f >> 16), byte(f >> 8), byte(f)})
		s.keys = append(s.keys, flow.Key{Src: src, Dst: r.Dst, SrcPort: r.SrcPort, DstPort: r.DstPort, Proto: r.Proto})
		tmplOf = append(tmplOf, t)
		return int32(f)
	}
	var sent []int32 // flow → rows emitted so far
	emit := func(f int32) {
		t := tmplOf[f]
		r := *t.reports[int(sent[f])%len(t.reports)]
		r.Src = s.keys[f].Src
		r.Seq = uint64(len(s.flowOf) + 1)
		s.wire = append(s.wire, r.Encode(telemetry.InstAll)...)
		s.off = append(s.off, uint32(len(s.wire)))
		s.flowOf = append(s.flowOf, f)
		s.seqOf = append(s.seqOf, sent[f])
		s.truth = append(s.truth, r.Truth.Label)
		sent[f]++
	}

	if w.churn {
		benign, attack := longest(p.benign, 2), longest(p.attack, 2)
		if len(benign) == 0 || len(attack) == 0 {
			return nil, fmt.Errorf("capture has no two-report flows to churn")
		}
		sent = make([]int32, (rows+1)/2)
		for len(s.flowOf) < rows {
			from := benign
			if len(s.keys)%2 == 1 {
				from = attack
			}
			f := addFlow(&from[rng.Intn(len(from))])
			emit(f)
			if len(s.flowOf) < rows {
				emit(f)
			}
		}
	} else {
		// Long templates only: a replayed flow wraps to its first report
		// when the template runs out, and each wrap feeds the flow table
		// one meaningless inter-arrival time.
		benign, attack := longest(p.benign, 10), longest(p.attack, 5)
		if len(benign) == 0 || len(attack) == 0 {
			return nil, fmt.Errorf("capture has no long flows to replay")
		}
		nAttack := int(attackShare * steadyFlows)
		for f := 0; f < steadyFlows; f++ {
			if f < nAttack {
				addFlow(&attack[f%len(attack)])
			} else {
				addFlow(&benign[f%len(benign)])
			}
		}
		sent = make([]int32, steadyFlows)
		for len(s.flowOf) < rows {
			emit(int32(rng.Intn(steadyFlows)))
		}
	}

	s.flowStart = make([]int32, len(s.keys)+1)
	for f, n := range sent[:len(s.keys)] {
		s.flowStart[f+1] = s.flowStart[f] + n
	}
	s.rowAt = make([]int32, rows)
	for row, f := range s.flowOf {
		s.rowAt[s.flowStart[f]+s.seqOf[row]] = int32(row)
	}
	return s, nil
}
