package core

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/amlight/intddos/internal/fault"
)

// TestMetricCatalogueMatchesREADME keeps the README's metric table and
// the registry in step. A pipeline with every optional surface on —
// shards, dedup, a fault spec, triage, a checkpoint dir — registers
// every intddos_ family the runtime has; each must be a row of the
// table, and each row must name a family some package registers.
func TestMetricCatalogueMatchesREADME(t *testing.T) {
	cfg := liveConfig(namedDetector("A"), probaModel{stubModel: namedDetector("RF"), conf: 1})
	cfg.Shards, cfg.DedupWindow = 2, 4
	cfg.Triage, cfg.TriageThreshold = true, DefaultTriageThreshold
	cfg.CheckpointDir = t.TempDir()
	cfg.Fault = fault.New(fault.Spec{StoreErr: 0.01}, 1)
	l := startLive(t, cfg)
	defer l.Stop()

	var b strings.Builder
	l.reg.WritePrometheus(&b)
	registered := make(map[string]bool)
	for _, line := range strings.Split(b.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok && strings.HasPrefix(name, "intddos_") {
			registered[strings.Fields(name)[0]] = true
		}
	}
	documented := readmeMetricFamilies(t, filepath.Join("..", "..", "README.md"))
	if len(documented) == 0 {
		t.Fatal("README has no metric table")
	}
	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("%s is registered but missing from the README's metric table", name)
		}
	}
	src := nonTestSources(t, filepath.Join("..", "..", "internal"), filepath.Join("..", "..", "cmd"))
	for _, name := range sortedKeys(documented) {
		if !registered[name] && !strings.Contains(src, `"`+name+`"`) {
			t.Errorf("the README's metric table names %s, which no package registers", name)
		}
	}
}

// readmeMetricFamilies reads the first cell of every row of the table
// after the README's "Metric families" line: each `name` or
// `name{label}` span in it is one family, intddos_ prefix implied.
func readmeMetricFamilies(t *testing.T, path string) map[string]bool {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	span := regexp.MustCompile("`([a-z0-9_]+)(\\{[^`]*\\})?`")
	out := make(map[string]bool)
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Metric families"):
			in = true
		case in && strings.HasPrefix(line, "|"):
			cells := strings.Split(line, " | ")
			for _, m := range span.FindAllStringSubmatch(cells[0], -1) {
				out["intddos_"+m[1]] = true
			}
		case in && len(out) > 0:
			return out
		}
	}
	return out
}

// nonTestSources concatenates every non-test Go file under roots.
func nonTestSources(t *testing.T, roots ...string) string {
	var b strings.Builder
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			data, err := os.ReadFile(p)
			b.Write(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
