package sflow

import "github.com/amlight/intddos/internal/netsim"

// Collector terminates sFlow datagrams and hands decoded samples to
// subscribers.
type Collector struct {
	eng *netsim.Engine

	// OnFlowSample receives each decoded flow sample with its
	// collector-local arrival time.
	OnFlowSample func(s *FlowSample, at netsim.Time)

	// Stats
	FlowSamples  int
	DecodeErrors int
}

// NewCollector constructs a collector on eng.
func NewCollector(eng *netsim.Engine) *Collector {
	return &Collector{eng: eng}
}

// Receive implements netsim.Receiver.
func (c *Collector) Receive(p *netsim.Packet) {
	fs, err := Decode(p.Payload)
	if err != nil {
		c.DecodeErrors++
		return
	}
	c.FlowSamples++
	fs.Truth = Truth{Label: p.Label, AttackType: p.AttackType, SentAt: p.SentAt}
	if c.OnFlowSample != nil {
		c.OnFlowSample(fs, c.eng.Now())
	}
}
