package experiment

import (
	"strings"
	"testing"

	"github.com/amlight/intddos/internal/traffic"
)

func TestRunMitigation(t *testing.T) {
	rows, err := RunMitigation(LiveConfig{
		Scale: traffic.ScaleTiny, Seed: 42, PacketsPerType: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 attack types", len(rows))
	}
	byType := map[string]MitigationResult{}
	for _, r := range rows {
		byType[r.AttackType] = r
	}
	// Single-source scans must be largely suppressed after source
	// escalation.
	for _, typ := range []string{traffic.SYNScan, traffic.UDPScan} {
		r := byType[typ]
		if r.Suppression < 0.5 {
			t.Errorf("%s suppression = %.2f, want ≥0.5 (single source)", typ, r.Suppression)
		}
		if r.Escalations == 0 {
			t.Errorf("%s never escalated to a source rule", typ)
		}
		if r.TimeToFirstRule <= 0 {
			t.Errorf("%s has no first-rule time", typ)
		}
	}
	// Spoofed floods defeat per-flow rules: suppression must be poor —
	// the known limitation that motivates upstream filtering.
	if r := byType[traffic.SYNFlood]; r.Suppression > 0.5 {
		t.Errorf("spoofed flood suppression = %.2f — should remain poor", r.Suppression)
	}
	// Accounting adds up.
	for _, r := range rows {
		if r.Delivered+r.DroppedByACL > r.TotalPackets {
			t.Errorf("%s: delivered %d + dropped %d > total %d",
				r.AttackType, r.Delivered, r.DroppedByACL, r.TotalPackets)
		}
	}
	if !strings.Contains(FormatMitigation(rows), "Suppression") {
		t.Error("rendering incomplete")
	}
}
