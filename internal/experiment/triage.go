package experiment

import (
	"fmt"
	"sort"
	"strings"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/trace"
	"github.com/amlight/intddos/internal/traffic"
)

// TriageSweepConfig parameterizes the exit-rate/accuracy sweep over
// benign fraction × stage-0 threshold (triageBenignFracs ×
// triageThresholds).
type TriageSweepConfig struct {
	// Live supplies the base stage-2 settings (scale, seed, pacing).
	// Its Triage* fields are ignored; the sweep sets them per cell.
	Live LiveConfig
}

var (
	// triageBenignFracs are the benign shares of each mixed replay
	// stream, the benchmark's benign-heavy mix last.
	triageBenignFracs = []float64{0.50, 0.80, 0.95}
	// triageThresholds are the stage-0 confidence cutoffs swept per
	// fraction. Each fraction also runs a triage-off baseline the
	// deltas are measured against.
	triageThresholds = []float64{0.90, 0.95, 0.99}
)

// TriageCell is one sweep measurement: a benign fraction replayed
// with one threshold (0 = the triage-off baseline).
type TriageCell struct {
	BenignFrac    float64
	Threshold     float64
	Rows          int
	ExitRate      float64 // fraction of decisions with Stage > 0
	Accuracy      float64
	AccuracyDelta float64 // percentage points vs the baseline at this fraction
}

// TriageSweep is the full grid plus the ensemble it ran on.
type TriageSweep struct {
	Cells    []TriageCell
	Ensemble []string
}

// mixedRecords builds one replay stream of n records with the given
// benign share; the attack remainder is spread evenly over the
// workload's attack types. Records are re-based and merged by their
// capture timestamps so the stream interleaves like real traffic.
func mixedRecords(w *traffic.Workload, n int, benignFrac float64) []trace.Record {
	nBenign := int(float64(n)*benignFrac + 0.5)
	if nBenign > n {
		nBenign = n
	}
	nAttack := n - nBenign
	out := append([]trace.Record(nil), recordsOfType(w, traffic.Benign, nBenign, true)...)
	if nAttack > 0 {
		per := nAttack / len(traffic.AttackTypes)
		extra := nAttack % len(traffic.AttackTypes)
		for i, typ := range traffic.AttackTypes {
			want := per
			if i < extra {
				want++
			}
			out = append(out, recordsOfType(w, typ, want, true)...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// RunTriageSweep trains the stage-2 ensemble once, then replays mixed
// benign/attack streams through the live mechanism at every (benign
// fraction, threshold) pair, measuring the cascade's exit rate and
// the accuracy cost against a triage-off baseline on the identical
// stream.
func RunTriageSweep(cfg TriageSweepConfig) (*TriageSweep, error) {
	cfg.Live.fillDefaults()
	w := traffic.Build(traffic.ConfigForScale(cfg.Live.Scale, cfg.Live.Seed))
	models, scaler, names, _, err := trainStageTwo(cfg.Live, w)
	if err != nil {
		return nil, err
	}
	sweep := &TriageSweep{Ensemble: names}
	for _, frac := range triageBenignFracs {
		recs := mixedRecords(w, cfg.Live.PacketsPerType, frac)
		if len(recs) == 0 {
			return nil, fmt.Errorf("triage sweep: empty stream at benign fraction %g", frac)
		}
		base := cfg.Live
		base.Triage = false
		baseDec, err := replayLive(recs, 1.0, models, scaler, base)
		if err != nil {
			return nil, fmt.Errorf("triage sweep baseline frac=%g: %w", frac, err)
		}
		baseCell := summarizeCell(frac, 0, baseDec)
		sweep.Cells = append(sweep.Cells, baseCell)
		for _, th := range triageThresholds {
			run := cfg.Live
			run.Triage = true
			run.TriageThreshold = th
			run.fillDefaults() // resolve TriageModel default
			dec, err := replayLive(recs, 1.0, models, scaler, run)
			if err != nil {
				return nil, fmt.Errorf("triage sweep frac=%g th=%g: %w", frac, th, err)
			}
			cell := summarizeCell(frac, th, dec)
			cell.AccuracyDelta = (cell.Accuracy - baseCell.Accuracy) * 100
			sweep.Cells = append(sweep.Cells, cell)
		}
	}
	return sweep, nil
}

func summarizeCell(frac, th float64, dec []core.Decision) TriageCell {
	cell := TriageCell{BenignFrac: frac, Threshold: th, Rows: len(dec)}
	if len(dec) == 0 {
		return cell
	}
	correct, exited := 0, 0
	for _, d := range dec {
		if d.Correct() {
			correct++
		}
		if d.Stage > 0 {
			exited++
		}
	}
	cell.Accuracy = float64(correct) / float64(len(dec))
	cell.ExitRate = float64(exited) / float64(len(dec))
	return cell
}

// FormatTriageSweep renders the grid as the EXPERIMENTS.md table.
func FormatTriageSweep(s *TriageSweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Triage sweep (ensemble %s)\n", strings.Join(s.Ensemble, "+"))
	fmt.Fprintf(&b, "%-12s %-10s %6s %10s %10s %8s\n",
		"benign_frac", "threshold", "rows", "exit_rate", "accuracy", "Δacc_pp")
	for _, c := range s.Cells {
		th := fmt.Sprintf("%.2f", c.Threshold)
		delta := fmt.Sprintf("%+.2f", c.AccuracyDelta)
		if c.Threshold == 0 {
			th, delta = "off", "—"
		}
		fmt.Fprintf(&b, "%-12.2f %-10s %6d %10.3f %10.4f %8s\n",
			c.BenignFrac, th, c.Rows, c.ExitRate, c.Accuracy, delta)
	}
	return b.String()
}
