package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/testbed"
)

// ImpairConfig parameterizes the adverse-network sweep: the Table
// III/IV experiments re-run over a grid of link impairments on the
// report wire, quantifying how much accuracy the detection pipeline
// loses when the telemetry path drops, duplicates, and reorders. The
// grid (defaultImpairPoints), the collector's acceptance window
// (impairReorderWindow) and the models evaluated (RF and GNB) are
// fixed.
type ImpairConfig struct {
	Scale string
	Seed  int64
	// NetemSeed drives the impairment RNGs (default: Seed).
	NetemSeed int64
	// Quick trims the grid to baseline + the acceptance point (CI
	// smoke).
	Quick bool
}

// impairReorderWindow is the collector's per-source acceptance window
// for every row, baseline included — deliberately tight, so the sweep
// also exercises stale rejection.
const impairReorderWindow = 8

// ImpairPoint is one grid point: a name and the netem sub-clauses
// applied to the agent→collector report wire.
type ImpairPoint struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// defaultImpairPoints is the sweep grid, the clean baseline first. The
// "loss1-dup0.1" point is the acceptance criterion: Table III macro accuracy must stay within
// 5 pp of baseline at 1% loss + 0.1% dup with reorder window 8.
func defaultImpairPoints() []ImpairPoint {
	return []ImpairPoint{
		{Name: "baseline", Spec: ""},
		{Name: "loss0.5", Spec: "loss=0.5%"},
		{Name: "loss1-dup0.1", Spec: "loss=1%,dup=0.1%"},
		{Name: "jitter-reorder", Spec: "delay=20us,jitter=40us,reorder=5%"},
		{Name: "heavy", Spec: "loss=2%,dup=0.5%,delay=20us,jitter=40us"},
	}
}

// ImpairRow is one grid point's outcome.
type ImpairRow struct {
	Name string `json:"name"`
	Spec string `json:"spec"`

	// Capture accounting.
	INTRows   int `json:"int_rows"`
	Sent      int `json:"link_sent"`
	Delivered int `json:"link_delivered"`
	Lost      int `json:"link_lost"`
	Dupd      int `json:"link_duplicated"`
	Reordered int `json:"link_reordered"`

	// Collector classification.
	ColDup   int `json:"collector_duplicates"`
	ColStale int `json:"collector_stale"`
	SeqGaps  int `json:"collector_seq_gaps"`
	Healed   int `json:"collector_healed"`

	// Accuracy: Table III macro (mean accuracy over the configured
	// models, 90:10 split, INT data) and Table IV zero-day (RF,
	// day-5 cut), with deltas vs the baseline row in percentage
	// points.
	MacroAccuracy float64 `json:"macro_accuracy"`
	ZeroDay       float64 `json:"zero_day_accuracy"`
	DeltaMacroPP  float64 `json:"delta_macro_pp"`
	DeltaZeroPP   float64 `json:"delta_zero_pp"`

	// AccountingClosed: the link ledger closes AND every report the
	// link delivered is a collector acceptance or suppression.
	AccountingClosed bool `json:"accounting_closed"`
}

// ImpairResult is the sweep artifact.
type ImpairResult struct {
	Scale         string      `json:"scale"`
	Seed          int64       `json:"seed"`
	ReorderWindow int         `json:"reorder_window"`
	Models        []string    `json:"models"`
	Rows          []ImpairRow `json:"rows"`
}

// RunImpairmentSweep runs the Table III/IV experiments across the
// impairment grid. Row 0 is always the clean baseline the deltas are
// measured against.
func RunImpairmentSweep(cfg ImpairConfig) (*ImpairResult, error) {
	if cfg.NetemSeed == 0 {
		cfg.NetemSeed = cfg.Seed
	}
	points := defaultImpairPoints()
	if cfg.Quick {
		points = []ImpairPoint{points[0], points[2]} // baseline + the acceptance point
	}
	// One strong and one cheap learner bracket the ensemble.
	roster := StageOneModels()
	specs := []ModelSpec{roster[0], roster[1]}

	out := &ImpairResult{
		Scale: cfg.Scale, Seed: cfg.Seed,
		ReorderWindow: impairReorderWindow, Models: []string{specs[0].Name, specs[1].Name},
	}
	for _, pt := range points {
		row, err := runImpairPoint(cfg, specs, pt)
		if err != nil {
			return nil, fmt.Errorf("impair %s: %w", pt.Name, err)
		}
		out.Rows = append(out.Rows, *row)
	}
	base := out.Rows[0]
	for i := range out.Rows {
		out.Rows[i].DeltaMacroPP = (out.Rows[i].MacroAccuracy - base.MacroAccuracy) * 100
		out.Rows[i].DeltaZeroPP = (out.Rows[i].ZeroDay - base.ZeroDay) * 100
	}
	return out, nil
}

// runImpairPoint captures the workload once under the point's
// impairment and evaluates the configured models on it.
func runImpairPoint(cfg ImpairConfig, specs []ModelSpec, pt ImpairPoint) (*ImpairRow, error) {
	dc := DataConfig{
		Scale: cfg.Scale, Seed: cfg.Seed,
		NetemSeed:     cfg.NetemSeed,
		ReorderWindow: impairReorderWindow,
	}
	if pt.Spec != "" {
		spec, err := fault.ParseNetem(
			fmt.Sprintf("netem[link=%s]:%s", testbed.LinkAgentCollector, pt.Spec))
		if err != nil {
			return nil, err
		}
		dc.Netem = spec
	}
	c, err := Collect(dc)
	if err != nil {
		return nil, err
	}

	row := &ImpairRow{
		Name: pt.Name, Spec: pt.Spec,
		INTRows:  c.INT.Len(),
		ColDup:   c.Duplicates,
		ColStale: c.Stale,
		SeqGaps:  c.SeqGaps,
		Healed:   c.Healed,
	}
	row.AccountingClosed = true
	if ls, ok := c.LinkStats[testbed.LinkAgentCollector]; ok {
		row.Sent, row.Delivered = ls.Sent, ls.Delivered
		row.Lost, row.Dupd, row.Reordered = ls.Lost, ls.Duplicated, ls.Reordered
		// Closure: the link ledger balances, and every delivered
		// report is exactly one acceptance or suppression.
		row.AccountingClosed = ls.Closed() &&
			ls.Delivered == c.INTReports+c.Duplicates+c.Stale
	}

	var sum float64
	for _, spec := range specs {
		train, test := c.INT.Split(0.1, cfg.Seed)
		res, err := TrainEval(spec, train, test, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sum += res.Scores.Accuracy
	}
	row.MacroAccuracy = sum / float64(len(specs))

	// Zero-day: RF across the day-5 cut (Table IV's protocol).
	train, test := SplitAtTime(c.INT, c.DayCut(5))
	res, err := TrainEval(StageOneModels()[0], train, test, cfg.Seed)
	if err != nil {
		return nil, err
	}
	row.ZeroDay = res.Scores.Accuracy
	return row, nil
}

// WriteImpairJSON writes the sweep artifact (validated by
// `diagcheck -impair`).
func WriteImpairJSON(path string, r *ImpairResult) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// FormatImpairmentSweep renders the sweep as a text table.
func FormatImpairmentSweep(r *ImpairResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "IMPAIRMENT SWEEP: scale=%s seed=%d reorder_window=%d models=%s\n",
		r.Scale, r.Seed, r.ReorderWindow, strings.Join(r.Models, "+"))
	fmt.Fprintf(&b, "%-16s %-34s %8s %8s %8s %8s %9s %9s %8s\n",
		"point", "netem[link=agent->collector]", "rows", "lost", "dup", "stale",
		"macro", "Δmacro", "ledger")
	for _, row := range r.Rows {
		spec := row.Spec
		if spec == "" {
			spec = "(none)"
		}
		ledger := "CLOSED"
		if !row.AccountingClosed {
			ledger = "LEAK"
		}
		fmt.Fprintf(&b, "%-16s %-34s %8d %8d %8d %8d %8.2f%% %+8.2f %8s\n",
			row.Name, spec, row.INTRows, row.Lost, row.ColDup, row.ColStale,
			row.MacroAccuracy*100, row.DeltaMacroPP, ledger)
	}
	b.WriteString("Δmacro is percentage points vs the baseline row; the ledger closes when\n")
	b.WriteString("link Delivered == Sent - Lost - RateDropped + Duplicated and every delivered\n")
	b.WriteString("report is exactly one collector acceptance or suppression.\n")
	return b.String()
}
