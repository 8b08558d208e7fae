// realtime runs the detection pipeline the way a deployment would:
// the four modules as concurrent goroutines on the wall clock, fed by
// INT report datagrams arriving on a real UDP socket. The telemetry
// itself comes from a simulated capture — the sink's reports are
// re-exported over localhost — so the example is self-contained while
// exercising the exact ingestion path a production collector uses.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/amlight/intddos"
)

func main() {
	scale := flag.String("scale", intddos.ScaleTiny, "workload scale: tiny, small, or full")
	seed := flag.Int64("seed", 42, "experiment seed")
	maxReports := flag.Int("reports", 6000, "reports to stream over the socket")
	flag.Parse()

	// 1. Pre-train an RF offline, as the Prediction module expects.
	capture, err := intddos.Collect(intddos.DataConfig{Scale: *scale, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	train, _ := capture.INT.Split(0.1, *seed)
	model, scaler, err := intddos.FitModel(intddos.StageOneModels()[0], train.Subsample(20000, *seed), *seed)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Wall-clock pipeline: UDP collector → Live runtime.
	live, err := intddos.NewLiveRuntime(intddos.LiveRuntimeConfig{
		Models: []intddos.Classifier{model},
		Scaler: scaler,
	})
	if err != nil {
		log.Fatal(err)
	}
	col, err := intddos.ListenReports("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	col.OnReport = func(r *intddos.Report, _ intddos.Time) { live.HandleReport(r) }
	col.Start()
	live.Start()
	fmt.Printf("collector listening on %s\n", col.Addr())

	// 3. Re-export the simulated sink's reports over the socket.
	var reports []*intddos.Report
	tb := intddos.NewTestbed(intddos.TestbedConfig{})
	tb.Collector.OnReport = func(r *intddos.Report, _ intddos.Time) {
		if len(reports) < *maxReports {
			reports = append(reports, r)
		}
	}
	rp := tb.Replayer(capture.Workload.Records)
	rp.MaxPackets = *maxReports
	rp.Start()
	tb.Run()

	snd, err := intddos.DialReports(col.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	for i, r := range reports {
		if err := snd.Send(r); err != nil {
			log.Fatal(err)
		}
		// Pace in small batches so the UDP socket buffer never
		// overflows (time.Sleep granularity makes per-packet pacing
		// needlessly slow).
		if i%64 == 63 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	snd.Close()

	// 4. Drain, then join decisions against ground truth offline (the
	//    wire carries no labels, as in a real deployment). Loopback
	//    delivery is synchronous with Send, so what the collector has
	//    not read yet sits in its socket buffer: one more pacing
	//    interval lets it through before the pipeline settles.
	time.Sleep(20 * time.Millisecond)
	if !live.AwaitSettled(10 * time.Second) {
		log.Printf("pipeline did not settle: %s", live.Ledger())
	}
	live.Stop()
	col.Close()

	truth := make(map[intddos.FlowKey]bool)
	for i := range capture.Workload.Records {
		r := &capture.Workload.Records[i]
		truth[intddos.FlowKey{
			Src: r.Src, Dst: r.Dst, SrcPort: r.SrcPort, DstPort: r.DstPort, Proto: r.Proto,
		}] = r.Label
	}
	correct, flagged := 0, 0
	decisions := live.Decisions()
	var worstLatency time.Duration
	for _, d := range decisions {
		if d.Label == 1 {
			flagged++
		}
		if (d.Label == 1) == truth[d.Key] {
			correct++
		}
		if lat := time.Duration(d.Latency); lat > worstLatency {
			worstLatency = lat
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("streamed %d reports in %v (%.0f reports/s)\n",
		len(reports), elapsed.Round(time.Millisecond), float64(len(reports))/elapsed.Seconds())
	fmt.Printf("socket: %d received, %d decode errors; pipeline: %d decisions, %d shed\n",
		col.Received.Load(), col.DecodeErrors.Load(), len(decisions), live.Shed.Load())
	if len(decisions) == 0 {
		log.Fatal("no decisions produced")
	}
	fmt.Printf("accuracy vs ground truth: %.4f (%d flagged as attack), worst wall-clock latency %v\n",
		float64(correct)/float64(len(decisions)), flagged, worstLatency.Round(time.Microsecond))
}
