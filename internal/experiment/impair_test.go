package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/amlight/intddos/internal/traffic"
)

func TestImpairmentSweepQuick(t *testing.T) {
	r, err := RunImpairmentSweep(ImpairConfig{Scale: traffic.ScaleTiny, Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0].Spec != "" {
		t.Fatalf("quick sweep rows = %+v, want baseline + acceptance point", r.Rows)
	}
	base, imp := r.Rows[0], r.Rows[1]
	if base.Lost != 0 || base.ColDup != 0 || base.ColStale != 0 {
		t.Errorf("baseline saw impairment: %+v", base)
	}
	if imp.Lost == 0 {
		t.Errorf("no loss at 1%%: %+v", imp)
	}
	if imp.Dupd == 0 || imp.ColDup == 0 {
		t.Errorf("no duplication at 0.1%% over a tiny-scale capture: %+v", imp)
	}
	for _, row := range r.Rows {
		if !row.AccountingClosed {
			t.Errorf("row %s: accounting open: %+v", row.Name, row)
		}
		if row.MacroAccuracy <= 0 || row.MacroAccuracy > 1 {
			t.Errorf("row %s: macro accuracy %v out of (0,1]", row.Name, row.MacroAccuracy)
		}
	}
	// The acceptance bound: within -5 pp of baseline at 1% loss +
	// 0.1% dup with reorder window 8.
	if imp.DeltaMacroPP < -5 {
		t.Errorf("macro accuracy degraded %.2f pp at the acceptance point, bound is -5", imp.DeltaMacroPP)
	}

	// Artifact round-trips.
	path := filepath.Join(t.TempDir(), "impair.json")
	if err := WriteImpairJSON(path, r); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ImpairResult
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(r.Rows) || back.Rows[1].Name != r.Rows[1].Name {
		t.Errorf("artifact did not round-trip: %+v", back)
	}
	if FormatImpairmentSweep(r) == "" {
		t.Error("empty formatted sweep")
	}
}
