package experiment

import (
	"fmt"
	"sort"
	"strings"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
)

// FormatTableI renders the attack schedule like the paper's Table I.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: Simulated Attack Flows (compressed timeline)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %10s\n", "Attack", "Start", "End", "Packets")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14v %14v %10d\n", r.Type, r.Start, r.End, r.Packets)
	}
	return b.String()
}

// FormatTableII renders the feature-availability matrix.
func FormatTableII(rows []flow.AvailabilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II: Features used to detect DDoS attacks\n")
	fmt.Fprintf(&b, "%-28s %5s %6s\n", "Feature", "INT", "sFlow")
	mark := func(v bool) string {
		if v {
			return "Y"
		}
		return "X"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %5s %6s\n", r.Feature, mark(r.INT), mark(r.SFlow))
	}
	b.WriteString("Note: * includes packet-level, cumulative, average, and std variants.\n")
	return b.String()
}

// FormatEvalRows renders Table III/IV-style model comparison rows.
func FormatEvalRows(title string, rows []EvalResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%-6s %-5s %9s %8s %10s %9s %8s %8s\n",
		"Data", "Model", "Accuracy", "Recall", "Precision", "F1-score", "Train", "Test")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-5s %9.4f %8.4f %10.4f %9.4f %8d %8d\n",
			r.Data, r.Model, r.Scores.Accuracy, r.Scores.Recall, r.Scores.Precision, r.Scores.F1,
			r.TrainRows, r.TestRows)
	}
	return b.String()
}

// FormatConfusion renders a Figure 3/4-style confusion matrix.
func FormatConfusion(title string, m ml.ConfusionMatrix) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%18s %12s %12s\n", "", "pred benign", "pred attack")
	fmt.Fprintf(&b, "%18s %12d %12d\n", "true benign", m.TN, m.FP)
	fmt.Fprintf(&b, "%18s %12d %12d\n", "true attack", m.FN, m.TP)
	fmt.Fprintf(&b, "accuracy %.4f over %d rows\n", m.Accuracy(), m.Total())
	return b.String()
}

// FormatTableV renders the per-model top-five feature importances.
func FormatTableV(rows []TableVRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "TABLE V: Five most important features per model (INT data)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s:", r.Model)
		for _, f := range r.Top {
			fmt.Fprintf(&b, "  %s (%.3f)", f.Name, f.Value)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatTableVMatrix renders Table V in the paper's layout: one row
// per feature that makes any model's top five, one checkmark column
// per model.
func FormatTableVMatrix(rows []TableVRow) string {
	type stat struct {
		count int
		first int
	}
	inTop := make(map[string]map[string]bool, len(rows))
	stats := map[string]stat{}
	order := []string{}
	for _, r := range rows {
		inTop[r.Model] = make(map[string]bool, len(r.Top))
		for rank, f := range r.Top {
			inTop[r.Model][f.Name] = true
			s, seen := stats[f.Name]
			if !seen {
				order = append(order, f.Name)
				s.first = rank
			}
			s.count++
			stats[f.Name] = s
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := stats[order[i]], stats[order[j]]
		if si.count != sj.count {
			return si.count > sj.count
		}
		return si.first < sj.first
	})

	var b strings.Builder
	b.WriteString("TABLE V: The five most important features per model (INT data)\n")
	fmt.Fprintf(&b, "%-26s", "Feature")
	for _, r := range rows {
		fmt.Fprintf(&b, " %5s", r.Model)
	}
	b.WriteByte('\n')
	for _, name := range order {
		fmt.Fprintf(&b, "%-26s", name)
		for _, r := range rows {
			mark := "-"
			if inTop[r.Model][name] {
				mark = "Y"
			}
			fmt.Fprintf(&b, " %5s", mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTableVI renders the live automated-detection results.
func FormatTableVI(res *LiveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE VI: Automated DDoS detection (ensemble %s, train rows %d)\n",
		strings.Join(res.Ensemble, "+"), res.TrainRows)
	fmt.Fprintf(&b, "%-10s %9s %16s %12s %12s %12s\n",
		"Type", "Accuracy", "Misclassified", "AvgPred(s)", "MaxPred(s)", "P99Pred(s)")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-10s %9.4f %9d/%-6d %12.2f %12.2f %12.2f\n",
			r.Type, r.Accuracy, r.Misclassified, r.Total,
			r.AvgLatency.Seconds(), r.MaxLatency.Seconds(), r.P99Latency.Seconds())
	}
	return b.String()
}

// FormatFigure5 renders the timeline as two character strips, one
// per monitoring source. Legend: '.' no observations in the bucket,
// '_' benign observed & predicted benign, '#' attack observed &
// predicted attack, '!' attack observed but missed, '+' false alarm.
// A ruler marks episode positions (s/u/f/l by attack type).
func FormatFigure5(fig *Figure5) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 5: Real data vs RF predictions (sFlow rate 1/%d, %d buckets over %v)\n",
		fig.SFlowRate, fig.Buckets, fig.Horizon)
	b.WriteString("episodes: " + episodeRuler(fig) + "\n")
	b.WriteString("INT:      " + strip(fig.INT) + "\n")
	b.WriteString("sFlow:    " + strip(fig.SFlow) + "\n")
	b.WriteString("legend: . no data | _ benign | # attack detected | ! attack missed | + false alarm\n")
	return b.String()
}

// episodeRuler draws one character per bucket naming the active
// episode type.
func episodeRuler(fig *Figure5) string {
	width := fig.Horizon / netsim.Time(fig.Buckets)
	out := make([]byte, fig.Buckets)
	for i := range out {
		mid := netsim.Time(i)*width + width/2
		switch fig.Episodes.ActiveAt(mid) {
		case "synscan":
			out[i] = 's'
		case "udpscan":
			out[i] = 'u'
		case "synflood":
			out[i] = 'f'
		case "slowloris":
			out[i] = 'l'
		default:
			out[i] = ' '
		}
	}
	return string(out)
}

// strip renders one monitoring source's timeline.
func strip(points []TimelinePoint) string {
	out := make([]byte, len(points))
	for i, p := range points {
		switch {
		case p.Rows == 0:
			out[i] = '.'
		case p.Truth >= 0.5 && p.Pred >= 0.5:
			out[i] = '#'
		case p.Truth >= 0.5:
			out[i] = '!'
		case p.Pred >= 0.5:
			out[i] = '+'
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// FormatFigure7 renders the per-decision strip for one flow type:
// '.' for correct decisions, 'x' for misclassifications, in decision
// order. The paper's observation — errors cluster at flow starts —
// shows up as 'x' runs near the left edge.
func FormatFigure7(res *LiveResult, typ string, width int) string {
	ds := res.Decisions[typ]
	if width <= 0 {
		width = 100
	}
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 7 (%s): %d decisions, 'x' marks misclassifications\n", typ, len(ds))
	line := 0
	for i, d := range ds {
		if d.Correct() {
			b.WriteByte('.')
		} else {
			b.WriteByte('x')
		}
		line++
		if line == width && i != len(ds)-1 {
			b.WriteByte('\n')
			line = 0
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// FormatEpisodeCoverage renders the per-episode capture counts.
func FormatEpisodeCoverage(rows []EpisodeCoverage, rate int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Episode coverage (sFlow 1/%d):\n", rate)
	fmt.Fprintf(&b, "%-10s %14s %14s %12s %14s\n", "Attack", "Start", "End", "INT pkts", "sFlow samples")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14v %14v %12d %14d\n",
			r.Episode.Type, r.Episode.Start, r.Episode.End, r.INTPackets, r.SFlowSamples)
	}
	return b.String()
}
