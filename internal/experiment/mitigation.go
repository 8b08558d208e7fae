package experiment

import (
	"fmt"
	"strings"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/mitigate"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/testbed"
	"github.com/amlight/intddos/internal/trace"
	"github.com/amlight/intddos/internal/traffic"
)

// MitigationResult summarizes one attack replay with the mitigation
// loop closed: detection decisions compile into ACL drop rules in the
// data plane, and the attack's remaining reach is measured.
type MitigationResult struct {
	AttackType      string
	TotalPackets    int
	Delivered       int // attack packets that reached the target
	DroppedByACL    int
	Suppression     float64 // fraction of the attack discarded in-network
	RulesInstalled  int
	Escalations     int
	TimeToFirstRule netsim.Time // from first attack packet
}

// RunMitigation closes the loop the paper leaves as future work: the
// mechanism's decisions feed the flow-rule generator, generated rules
// are compiled into the switch's ingress ACL, and each attack type's
// suppression is measured. The expected shape: single-source attacks
// (scans, SlowLoris) are cut off after source escalation, while
// spoofed floods defeat per-flow rules — the classic limitation that
// motivates upstream filtering.
func RunMitigation(cfg LiveConfig) ([]MitigationResult, error) {
	cfg.fillDefaults()
	w := traffic.Build(traffic.ConfigForScale(cfg.Scale, cfg.Seed))
	models, scaler, _, _, err := trainStageTwo(cfg, w)
	if err != nil {
		return nil, err
	}

	var out []MitigationResult
	for _, typ := range traffic.AttackTypes {
		recs := recordsOfType(w, typ, cfg.PacketsPerType, true)
		if len(recs) == 0 {
			return nil, fmt.Errorf("mitigation: no %s records", typ)
		}
		res, err := runMitigationType(typ, recs, replaySpeed(typ, recs), models, scaler, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// runMitigationType replays one attack with the ACL loop armed.
func runMitigationType(typ string, recs []trace.Record, speed float64, models []ml.Classifier, scaler *ml.StandardScaler, cfg LiveConfig) (MitigationResult, error) {
	tb := testbed.New(testbed.Config{})
	// Interpose the ACL ahead of the testbed's forwarding.
	aclFwd := netsim.NewACLForwarder(tb.Eng, tb.Switch.Forwarder)
	tb.Switch.Forwarder = aclFwd

	mech, err := core.New(tb.Eng, core.Config{
		Models:      models,
		Scaler:      scaler,
		ServiceTime: liveServiceTime,
	})
	if err != nil {
		return MitigationResult{}, err
	}
	tb.Collector.OnReport = mech.HandleReport

	gen := mitigate.NewGenerator(mitigate.Config{TTL: netsim.Time(1) << 50})
	var firstRule netsim.Time
	install := gen.InstallInto(aclFwd.ACL)
	mech.OnDecision = func(d core.Decision) {
		before := aclFwd.ACL.Installed
		install(d)
		if firstRule == 0 && aclFwd.ACL.Installed > before {
			firstRule = tb.Eng.Now()
		}
	}
	mech.Start()

	attackDelivered := 0
	tb.Target.OnReceive = func(p *netsim.Packet) {
		if p.Label {
			attackDelivered++
		}
	}

	rp := tb.Replayer(recs)
	rp.Speed = speed
	rp.MaxPackets = cfg.PacketsPerType
	rp.Start()
	deadline := netsim.Time(float64(recs[len(recs)-1].At)/speed) +
		netsim.Time(len(recs))*liveServiceTime*4 + 2*netsim.Second
	for tb.Eng.Now() < deadline && rp.Sent() < len(recs) {
		tb.RunUntil(tb.Eng.Now() + 100*netsim.Millisecond)
	}
	tb.RunUntil(tb.Eng.Now() + 2*netsim.Second) // drain

	res := MitigationResult{
		AttackType:     typ,
		TotalPackets:   rp.Sent(),
		Delivered:      attackDelivered,
		DroppedByACL:   aclFwd.Dropped,
		RulesInstalled: gen.Generated,
		Escalations:    gen.Escalated,
	}
	if res.TotalPackets > 0 {
		res.Suppression = float64(res.DroppedByACL) / float64(res.TotalPackets)
	}
	if firstRule > 0 && len(recs) > 0 {
		res.TimeToFirstRule = firstRule
	}
	return res, nil
}

// FormatMitigation renders the suppression summary.
func FormatMitigation(rows []MitigationResult) string {
	var b strings.Builder
	b.WriteString("MITIGATION (extension): detection decisions compiled into data-plane drop rules\n")
	fmt.Fprintf(&b, "%-10s %9s %10s %10s %12s %7s %12s %16s\n",
		"Attack", "Packets", "Delivered", "ACL-drop", "Suppression", "Rules", "Escalations", "FirstRule")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9d %10d %10d %11.1f%% %7d %12d %16v\n",
			r.AttackType, r.TotalPackets, r.Delivered, r.DroppedByACL,
			100*r.Suppression, r.RulesInstalled, r.Escalations, r.TimeToFirstRule)
	}
	return b.String()
}
