package testbed

import (
	"testing"

	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/sflow"
	"github.com/amlight/intddos/internal/telemetry"
	"github.com/amlight/intddos/internal/traffic"
)

func TestTopologyDoubleTransit(t *testing.T) {
	tb := New(Config{})
	var hops int
	tb.Collector.OnReport = func(r *telemetry.Report, _ netsim.Time) { hops = len(r.Hops) }
	tb.Source.Send(&netsim.Packet{Dst: TargetAddr, Proto: netsim.TCP, Length: 500})
	tb.Run()
	if tb.Target.Received != 1 {
		t.Fatalf("target received %d", tb.Target.Received)
	}
	if hops != 2 {
		t.Errorf("hops = %d, want 2 (port 3↔4 loop)", hops)
	}
}

func TestReplayThroughTestbed(t *testing.T) {
	tb := New(Config{})
	reports := 0
	tb.Collector.OnReport = func(*telemetry.Report, netsim.Time) { reports++ }
	w := traffic.Build(traffic.TinyConfig(1))
	recs := w.Records[:500]
	rp := tb.Replayer(recs)
	rp.Start()
	tb.Run()
	if rp.Sent() != 500 {
		t.Fatalf("replayed %d", rp.Sent())
	}
	if tb.Target.Received == 0 {
		t.Fatal("nothing delivered")
	}
	// Every delivered packet produces exactly one INT report.
	if reports != tb.Target.Received {
		t.Errorf("reports %d != delivered %d", reports, tb.Target.Received)
	}
}

func TestReplayerMaxPacketsMatchesPaperUsage(t *testing.T) {
	// The paper replays ≈2500 packets per flow type with tcpreplay -p.
	tb := New(Config{})
	w := traffic.Build(traffic.TinyConfig(2))
	rp := tb.Replayer(w.Records)
	rp.MaxPackets = 100
	rp.Start()
	tb.Run()
	if rp.Sent() != 100 {
		t.Errorf("sent %d, want 100", rp.Sent())
	}
}

func TestSFlowCoexistsWithINT(t *testing.T) {
	// At 1-in-1 the randomized countdown is always 1: every packet is
	// sampled, so the counts below are exact.
	tb := New(Config{EnableSFlow: true, SFlowRate: 1})
	intReports, sfSamples := 0, 0
	tb.Collector.OnReport = func(*telemetry.Report, netsim.Time) { intReports++ }
	tb.SFlowCollector.OnFlowSample = func(*sflow.FlowSample, netsim.Time) { sfSamples++ }
	w := traffic.Build(traffic.TinyConfig(3))
	rp := tb.Replayer(w.Records[:400])
	rp.Start()
	tb.Run()
	if intReports == 0 {
		t.Error("INT produced no reports alongside sFlow")
	}
	// The agent watches only the target-facing port, so each packet
	// counts once.
	if tb.SFlowAgent.Observed != tb.Target.Received {
		t.Errorf("sFlow observed %d, target received %d", tb.SFlowAgent.Observed, tb.Target.Received)
	}
	if tb.SFlowAgent.Sampled != tb.SFlowAgent.Observed {
		t.Errorf("sampled %d of %d at 1-in-1", tb.SFlowAgent.Sampled, tb.SFlowAgent.Observed)
	}
	if sfSamples != tb.SFlowAgent.Sampled {
		t.Errorf("collector samples %d != agent %d", sfSamples, tb.SFlowAgent.Sampled)
	}
}

func TestNetemImpairsNamedLink(t *testing.T) {
	spec, err := fault.ParseNetem("netem[link=agent->collector]:loss=40%")
	if err != nil {
		t.Fatal(err)
	}
	tb := New(Config{Netem: spec, NetemSeed: 11})
	reports := 0
	tb.Collector.OnReport = func(*telemetry.Report, netsim.Time) { reports++ }
	w := traffic.Build(traffic.TinyConfig(3))
	rp := tb.Replayer(w.Records[:800])
	rp.Start()
	tb.Run()

	if !tb.links[LinkAgentCollector].Impaired() {
		t.Fatal("agent->collector not impaired")
	}
	if tb.links[LinkSourceSwitch].Impaired() {
		t.Error("source->switch impaired by a spec naming only agent->collector")
	}
	stats := tb.ImpairedStats()[LinkAgentCollector]
	if !stats.Closed() {
		t.Errorf("impairment ledger open: %+v", stats)
	}
	if stats.Lost == 0 {
		t.Errorf("no loss at 40%%: %+v", stats)
	}
	if reports != stats.Delivered {
		t.Errorf("collector saw %d reports, link delivered %d", reports, stats.Delivered)
	}
	// The data path is untouched: every replayed packet still arrives.
	if tb.Target.Received != rp.Sent() {
		t.Errorf("target received %d of %d", tb.Target.Received, rp.Sent())
	}
}

func TestNetemUnsetLeavesLinksInert(t *testing.T) {
	for _, cfg := range []Config{{}, {Netem: fault.NetemSpec{}}} {
		tb := New(cfg)
		for name := range tb.links {
			if tb.links[name].Impaired() {
				t.Errorf("link %s impaired with empty netem spec", name)
			}
		}
	}
}
