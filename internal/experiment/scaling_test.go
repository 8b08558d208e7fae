package experiment

import (
	"slices"
	"strings"
	"testing"

	"github.com/amlight/intddos/internal/traffic"
)

func TestScalingStudyShapes(t *testing.T) {
	points, err := RunScalingStudy(ScalingConfig{Scale: traffic.ScaleTiny, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(scalingSweep) {
		t.Fatalf("points = %d, want %d", len(points), len(scalingSweep))
	}
	under, over := points[0], points[len(points)-1]

	// Under capacity: everything decided, no shedding, low latency.
	if under.Decisions != scalingPackets || under.Dropped != 0 {
		t.Errorf("underload: decided=%d dropped=%d", under.Decisions, under.Dropped)
	}
	if under.AvgLatency > 5*scalingServiceTime {
		t.Errorf("underload avg latency = %v", under.AvgLatency)
	}

	// Past the service rate, latency grows with offered load.
	for i := 1; i < len(points); i++ {
		if scalingSweep[i] > 1 && points[i].AvgLatency <= points[0].AvgLatency {
			t.Errorf("latency at %.0f pps = %v, no more than underload's %v",
				points[i].OfferedPPS, points[i].AvgLatency, under.AvgLatency)
		}
	}

	// Far over capacity: the bounded queue must shed load and the
	// backlog must hit the cap.
	if over.Dropped == 0 {
		t.Error("overload shed nothing despite queue cap")
	}
	if over.MaxBacklog < scalingQueueCap {
		t.Errorf("overload backlog = %d, want ≥ cap %d", over.MaxBacklog, scalingQueueCap)
	}
	if over.Decisions+over.Dropped != scalingPackets {
		t.Errorf("overload decided %d + dropped %d != %d", over.Decisions, over.Dropped, scalingPackets)
	}

	out := FormatScaling(points)
	if !strings.Contains(out, "SCALING STUDY") || !strings.Contains(out, "Offered") {
		t.Error("rendering incomplete")
	}
}

// TestScalingDefaultSweep pins the sweep's shape: ascending offered
// loads that bracket the pipeline's service rate, from well under it
// to far past it.
func TestScalingDefaultSweep(t *testing.T) {
	if !slices.IsSorted(scalingSweep) || !slices.Contains(scalingSweep, 1) {
		t.Errorf("sweep %v is not ascending through the service rate", scalingSweep)
	}
	if scalingSweep[0] >= 0.5 || scalingSweep[len(scalingSweep)-1] < 10 {
		t.Errorf("sweep %v does not bracket the service rate", scalingSweep)
	}
}
