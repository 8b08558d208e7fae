// Command benchmark is the repository's one performance ledger: it paces
// generated INT report bytes into core.Live from a single open-loop
// generator, joins every smoothed decision back to the row that caused
// it, checks the outputs, and prints the end-to-end metrics named in
// BENCHMARK.json — or, with -trace 1, the per-layer metrics. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

const (
	// warmSeconds precede the measured region, so that the flow table is
	// populated, the workers' scratch buffers are grown and the first
	// collections are behind us.
	warmSeconds = 2
	// setUps is how many times an untraced run sets up; setup_s is their
	// median, and the last one is measured. Set-up is CPU- and
	// memory-bound, and on this box single set-ups of 0.83 s ran up to
	// 1.44 s when a neighbour was busy; the median of five shrugs off two
	// such.
	setUps = 5
	// failedShareLimit is the share of rows that may fail before the run
	// is reported as incorrect.
	failedShareLimit = 0.001
)

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the form the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is a result as -out stores it, with what it was a run of.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	result
	Problems []string `json:"problems,omitempty"`
}

func main() {
	only := flag.String("workload", "", "run only this workload (default: all four)")
	flag.StringVar(only, "only", "", "alias of -workload")
	seed := flag.Int64("seed", 1, "seed of the generated streams")
	seconds := flag.Int("seconds", 20, "length of the measured region, whole seconds")
	trace := flag.Int("trace", 0, "1: make the traced run and print the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "append each workload's result to this JSON file")
	outDir := flag.String("outdir", "benchmark/out", "directory for span files and checkpoint scratch")
	smoke := flag.Bool("smoke", false, "1 s per workload, one set-up, correctness checks only")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: base.json change.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two files: base.json change.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal("-seconds must be at least 1 and -trace 0 or 1")
	}
	todo := workloads
	if *only != "" {
		w, ok := findWorkload(*only)
		if !ok {
			fatal(fmt.Sprintf("no workload %q", *only))
		}
		todo = []workload{w}
	}

	var smokePool *pool // one capture and fit serves every smoke pass
	if *smoke {
		var err error
		if smokePool, err = buildPool(); err != nil {
			fatal(err)
		}
	}
	ok := true
	for _, w := range todo {
		var (
			rec *record
			err error
		)
		switch {
		case *smoke:
			rec, err = runSmoke(os.Stdout, smokePool, w, *seed)
		case *trace == 1:
			rec, err = runTraced(os.Stdout, w, *seed, *seconds, *outDir)
		default:
			rec, err = runUntraced(os.Stdout, w, *seed, *seconds)
		}
		if err != nil {
			fatal(fmt.Sprintf("%s: %v", w.name, err))
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		ok = ok && rec.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(2)
}

// runUntraced sets up setUps times, measures the last set-up with
// nothing else running, and reports the end-to-end metrics.
func runUntraced(out io.Writer, w workload, seed int64, secs int) (*record, error) {
	rows := (warmSeconds + secs) * w.rate
	fmt.Fprintf(out, "== %s: seed %d, %d rows/s open loop, %d s warm-up + %d s measured ==\n",
		w.name, seed, w.rate, warmSeconds, secs)
	calibBefore := calibrate()

	var in *instance
	var setUpS []float64
	for i := 0; i < setUps; i++ {
		if in != nil {
			in.live.Stop()
		}
		runtime.GC() // every set-up starts from a collected heap, the first included
		start := time.Now()
		var err error
		if in, err = setUp(nil, w, seed, rows); err != nil {
			return nil, err
		}
		setUpS = append(setUpS, time.Since(start).Seconds())
	}
	r, err := runPass(w, in, warmSeconds, secs, nil)
	if err != nil {
		return nil, err
	}
	calibAfter := calibrate()

	m := r.endToEnd(w, warmSeconds)
	m["setup_s"] = median(setUpS)
	rec := newRecord(w, seed, secs, false, r, endToEndMetrics, m)
	rec.check(w, r, warmSeconds, m["accuracy"])

	fmt.Fprintf(out, "  set-up %.3v s (median of %v)\n", m["setup_s"], setUpS)
	fmt.Fprintf(out, "  calibration spin %.1f ms before, %.1f ms after\n", ms(calibBefore), ms(calibAfter))
	n := fmt.Sprintf("n=%d rows in %d windows of 1 s", secs*w.rate, secs)
	printMetrics(out, endToEndMetrics, m, map[string]string{
		"age_p50_ms": n, "age_p90_ms": n,
		"accuracy": fmt.Sprintf("n=%d decisions", r.Decided),
		"setup_s":  fmt.Sprintf("n=%d set-ups", setUps),
	})
	fmt.Fprintf(out, "  %-36s %14.6g %-6s n=%d windows of 1 s; not gated: it moved up to a fifth between sets of runs of the same code\n",
		"cpu_us_per_row", m["cpu_us_per_row"], "us", secs)
	rec.printChecks(out, w, r, warmSeconds)
	return rec, nil
}

// runSmoke is a 1 s pass whose only product is the correctness checks.
func runSmoke(out io.Writer, p *pool, w workload, seed int64) (*record, error) {
	const secs = 1
	in, err := setUp(p, w, seed, secs*w.rate)
	if err != nil {
		return nil, err
	}
	r, err := runPass(w, in, 0, secs, nil)
	if err != nil {
		return nil, err
	}
	m := r.endToEnd(w, 0)
	rec := newRecord(w, seed, secs, false, r, nil, nil)
	rec.check(w, r, 0, m["accuracy"])
	fmt.Fprintf(out, "== %s: smoke, seed %d, %d s ==\n", w.name, seed, secs)
	fmt.Fprintf(out, "  accuracy %.4f (floor %.2f)\n", m["accuracy"], w.minAccuracy)
	rec.printChecks(out, w, r, 0)
	return rec, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newRecord wraps the metrics defs names, taken from m, with the pass's
// ledger.
func newRecord(w workload, seed int64, secs int, traced bool, r *passResult, defs []metricDef, m map[string]float64) *record {
	rec := &record{
		Workload: w.name, Seed: seed, Seconds: secs, Trace: traced,
		result: result{Attempted: r.Sent, Failed: r.failed(), Metrics: make(map[string]value, len(defs))},
	}
	for _, d := range defs {
		v := m[d.Name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no such number. An age percentile is +Inf when that
			// share of a window's rows was never decided.
			rec.Problems = append(rec.Problems, fmt.Sprintf("not-finite: %s is %v, reported as 0", d.Name, v))
			v = 0
		}
		rec.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return rec
}

// check runs the correctness checks that are not already in
// r.problems and sets Correct.
func (rec *record) check(w workload, r *passResult, warm int, accuracy float64) {
	rec.Problems = append(rec.Problems, r.problems...)
	if share := float64(r.failed()) / float64(r.Sent); share > failedShareLimit {
		rec.Problems = append(rec.Problems, fmt.Sprintf("failed-share: %.4g of rows failed, limit %g", share, failedShareLimit))
	}
	if accuracy < w.minAccuracy {
		rec.Problems = append(rec.Problems, fmt.Sprintf("accuracy: %.4f is under the floor %.2f", accuracy, w.minAccuracy))
	}
	if _, share := r.lateness(w, warm); share > lateShareLimit {
		rec.Problems = append(rec.Problems, fmt.Sprintf("generator-late: in the median window %.4g of rows were handed over more than %v late, limit %g: the run is invalid, not slow",
			share, lateLimit, lateShareLimit))
	}
	rec.Correct = len(rec.Problems) == 0
}

func (rec *record) printChecks(out io.Writer, w workload, r *passResult, warm int) {
	fmt.Fprintf(out, "  ledger: sent %d = decided %d + shed %d + abandoned %d + ingest-dropped %d; failed_share %g\n",
		r.Sent, r.Decided, r.Shed, r.Abandoned, r.Dropped, float64(r.failed())/float64(r.Sent))
	p99, share := r.lateness(w, warm)
	fmt.Fprintf(out, "  generator: rows handed over p99 %.3f ms after due; in the median window %.4g of them more than %v after (limit %g)\n",
		p99, share, lateLimit, lateShareLimit)
	if rec.Correct {
		fmt.Fprintln(out, "  checks: ok")
		return
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(out, "  CHECK FAILED %s\n", p)
	}
}

// printMetrics prints the metrics of defs from m, one a line, by name
// and unit, with a note where one is given.
func printMetrics(out io.Writer, defs []metricDef, m map[string]float64, note map[string]string) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-36s %14.6g %-6s %s\n", d.Name, m[d.Name], d.Unit, note[d.Name])
	}
}

// appendRecord adds rec to the JSON list in path, creating the file if
// it is not there.
func appendRecord(path string, rec *record) error {
	recs, err := readRecords(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	buf, err := json.MarshalIndent(append(recs, *rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readRecords(path string) ([]record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(buf, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
