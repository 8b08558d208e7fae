package main

import (
	"fmt"
	"io"
)

// compareFiles prints, for every workload and end-to-end metric two -out
// files share, the change's median as a ratio of the base's, with the
// base, and a verdict against the metric's bound:
//
//	WORSE       the change's median is worse by more than the bound;
//	unresolved  the runs of either side spread (quartile to quartile,
//	            as a share of the median) more than the bound, so a
//	            difference within it cannot be told from noise — unless
//	            every run of the change reads better than every run of
//	            the base;
//	better      every run of the change reads better than every run of
//	            the base;
//	within      neither: the medians differ by less than the bound.
func compareFiles(out io.Writer, basePath, changePath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-34s %14s %14s  %-22s %7s %7s %6s  %s\n",
		"workload/metric", "base", "change", "ratio (base)", "spr.b", "spr.c", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			a, b := valuesOf(base, w.name, d.Name), valuesOf(change, w.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			sa, sb := iqrShare(a), iqrShare(b)
			fmt.Fprintf(out, "%-34s %14.6g %14.6g  x%-6.4f (%.6g %s) %6.1f%% %6.1f%% %5.1f%%  %s  n=%d,%d\n",
				w.name+"/"+d.Name, ma, mb, mb/ma, ma, d.Unit, 100*sa, 100*sb, 100*d.Bound,
				verdict(d, a, b), len(a), len(b))
		}
	}
	return nil
}

// valuesOf collects one metric of one workload over the untraced runs in
// recs.
func valuesOf(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func verdict(d metricDef, base, change []float64) string {
	// worse is how much worse x is than y, as a share of y.
	worse := func(x, y float64) float64 {
		if d.Better == "higher" {
			return (y - x) / y
		}
		return (x - y) / y
	}
	ma, mb := median(base), median(change)
	allBetter := true
	for _, b := range change {
		for _, a := range base {
			if worse(b, a) >= 0 {
				allBetter = false
			}
		}
	}
	noisy := iqrShare(base) > d.Bound || iqrShare(change) > d.Bound
	switch {
	case worse(mb, ma) > d.Bound:
		return "WORSE"
	case allBetter:
		return "better"
	case noisy:
		return "unresolved"
	}
	return "within"
}
