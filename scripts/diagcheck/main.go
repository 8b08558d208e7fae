// diagcheck validates a diagnostic bundle produced by
// Registry.WriteBundle (/debug/bundle, -diag-bundle, or the chaos
// harness): the argument must be a well-formed tar.gz whose required
// entries are present and non-empty, with events.jsonl parsing as one
// JSON object per line. It exits non-zero naming what is missing, so
// the smoke script's failure output says which artifact regressed.
//
// With -bench-checkpoint it instead validates a BENCH_checkpoint.json
// sweep (`make bench-checkpoint` / `make bench-checkpoint-smoke`): every
// row must carry a flow count, a positive encoded size, positive
// write throughput, a recorded barrier hold, and a restore that
// brought back exactly the flows it checkpointed.
//
// With -impair it validates an impairment-sweep artifact (`reproduce
// -only impair -impair-out ...`): a clean baseline row plus at least
// one impaired row, accuracies in (0, 1], and the accounting ledger
// closed on every row.
package main

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

var required = []string{
	"meta.txt",
	"metrics.prom",
	"metrics.txt",
	"health.txt",
	"events.jsonl",
}

func main() {
	switch {
	case len(os.Args) == 3 && os.Args[1] == "-bench-checkpoint":
		if err := checkBenchCheckpoint(os.Args[2]); err != nil {
			fmt.Fprintf(os.Stderr, "diagcheck: %s: %v\n", os.Args[2], err)
			os.Exit(1)
		}
	case len(os.Args) == 3 && os.Args[1] == "-impair":
		if err := checkImpair(os.Args[2]); err != nil {
			fmt.Fprintf(os.Stderr, "diagcheck: %s: %v\n", os.Args[2], err)
			os.Exit(1)
		}
	case len(os.Args) == 2:
		if err := check(os.Args[1]); err != nil {
			fmt.Fprintf(os.Stderr, "diagcheck: %s: %v\n", os.Args[1], err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: diagcheck <bundle.tar.gz | http://host/debug/bundle>")
		fmt.Fprintln(os.Stderr, "       diagcheck -bench-checkpoint <BENCH_checkpoint.json>")
		fmt.Fprintln(os.Stderr, "       diagcheck -impair <impair.json>")
		os.Exit(2)
	}
}

// checkBenchCheckpoint validates a BenchmarkCheckpoint sweep file:
// every row must identify its flow count, show a positive encoded
// size and write throughput, record the barrier hold the capture
// actually froze the pipeline for, and restore exactly the flows it
// checkpointed.
func checkBenchCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sweep struct {
		Bench   string `json:"bench"`
		Results []struct {
			Flows         int     `json:"flows"`
			Bytes         int     `json:"bytes"`
			WriteNsPerOp  float64 `json:"write_ns_per_op"`
			WriteMBPerSec float64 `json:"write_mb_per_sec"`
			BarrierNs     int64   `json:"barrier_ns"`
			RestoreNs     float64 `json:"restore_ns"`
			RestoredFlows int     `json:"restored_flows"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &sweep); err != nil {
		return fmt.Errorf("not valid sweep JSON: %w", err)
	}
	if sweep.Bench != "BenchmarkCheckpoint" {
		return fmt.Errorf("bench is %q, want BenchmarkCheckpoint", sweep.Bench)
	}
	if len(sweep.Results) == 0 {
		return fmt.Errorf("sweep has no rows")
	}
	for i, r := range sweep.Results {
		if r.Flows <= 0 {
			return fmt.Errorf("result %d: no flow count", i)
		}
		if r.Bytes <= 0 {
			return fmt.Errorf("result %d (flows=%d): non-positive encoded size", i, r.Flows)
		}
		if r.WriteNsPerOp <= 0 || r.WriteMBPerSec <= 0 {
			return fmt.Errorf("result %d (flows=%d): non-positive write throughput", i, r.Flows)
		}
		if r.BarrierNs <= 0 {
			return fmt.Errorf("result %d (flows=%d): no barrier hold recorded", i, r.Flows)
		}
		if r.BarrierNs > int64(r.WriteNsPerOp)+1 {
			return fmt.Errorf("result %d (flows=%d): barrier %dns exceeds the whole write (%vns)",
				i, r.Flows, r.BarrierNs, r.WriteNsPerOp)
		}
		if r.RestoreNs <= 0 {
			return fmt.Errorf("result %d (flows=%d): no restore time", i, r.Flows)
		}
		if r.RestoredFlows != r.Flows {
			return fmt.Errorf("result %d: restored %d flows of %d", i, r.RestoredFlows, r.Flows)
		}
	}
	fmt.Printf("diagcheck: OK (%d sweep rows)\n", len(sweep.Results))
	return nil
}

// checkImpair validates an impairment-sweep artifact: row 0 must be
// the clean baseline, at least one row must actually impair the wire,
// accuracies must be real scores, and every row's delivery accounting
// must close (no report unaccounted for between link and collector).
func checkImpair(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sweep struct {
		Scale         string   `json:"scale"`
		ReorderWindow int      `json:"reorder_window"`
		Models        []string `json:"models"`
		Rows          []struct {
			Name             string  `json:"name"`
			Spec             string  `json:"spec"`
			INTRows          int     `json:"int_rows"`
			Lost             int     `json:"link_lost"`
			Dupd             int     `json:"link_duplicated"`
			MacroAccuracy    float64 `json:"macro_accuracy"`
			ZeroDay          float64 `json:"zero_day_accuracy"`
			AccountingClosed bool    `json:"accounting_closed"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &sweep); err != nil {
		return fmt.Errorf("not valid sweep JSON: %w", err)
	}
	if len(sweep.Rows) < 2 {
		return fmt.Errorf("sweep has %d rows, want a baseline plus impaired rows", len(sweep.Rows))
	}
	if sweep.Rows[0].Spec != "" {
		return fmt.Errorf("row 0 (%s) is not the clean baseline", sweep.Rows[0].Name)
	}
	if len(sweep.Models) == 0 {
		return fmt.Errorf("sweep names no models")
	}
	impaired := 0
	for i, r := range sweep.Rows {
		if r.INTRows <= 0 {
			return fmt.Errorf("row %d (%s): no INT rows", i, r.Name)
		}
		if r.MacroAccuracy <= 0 || r.MacroAccuracy > 1 || r.ZeroDay <= 0 || r.ZeroDay > 1 {
			return fmt.Errorf("row %d (%s): accuracy outside (0, 1]", i, r.Name)
		}
		if !r.AccountingClosed {
			return fmt.Errorf("row %d (%s): accounting leak", i, r.Name)
		}
		if r.Spec != "" {
			impaired++
		}
	}
	if impaired == 0 {
		return fmt.Errorf("sweep has no impaired rows")
	}
	fmt.Printf("diagcheck: OK (%d sweep rows: 1 baseline, %d impaired; reorder_window=%d)\n",
		len(sweep.Rows), impaired, sweep.ReorderWindow)
	return nil
}

// open returns the bundle stream: a local file, or — when the
// argument is an http(s) URL, as in the smoke test hitting a live
// /debug/bundle — the response body.
func open(path string) (io.ReadCloser, error) {
	if strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://") {
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Get(path)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("HTTP %s", resp.Status)
		}
		return resp.Body, nil
	}
	return os.Open(path)
}

func check(path string) error {
	f, err := open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("not a gzip stream: %w", err)
	}
	defer gz.Close()

	sizes := map[string]int64{}
	var events []byte
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("corrupt tar: %w", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return fmt.Errorf("reading %s: %w", hdr.Name, err)
		}
		sizes[hdr.Name] = int64(len(data))
		if hdr.Name == "events.jsonl" {
			events = data
		}
		if strings.HasSuffix(hdr.Name, ".error") {
			fmt.Printf("  (entry %s: %s)\n", hdr.Name, strings.TrimSpace(string(data)))
		}
	}

	var missing []string
	for _, name := range required {
		if n, ok := sizes[name]; !ok || n == 0 {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("missing or empty entries: %s", strings.Join(missing, ", "))
	}
	for i, line := range strings.Split(strings.TrimSpace(string(events)), "\n") {
		if line == "" {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			return fmt.Errorf("events.jsonl line %d is not JSON: %v", i+1, err)
		}
	}
	fmt.Printf("diagcheck: OK (%d entries)\n", len(sizes))
	return nil
}
