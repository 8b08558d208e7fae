package telemetry

import (
	"math/rand"

	"github.com/amlight/intddos/internal/netsim"
)

// Sampler decides which packets the INT source instruments. The
// AmLight deployment instruments every packet; the probabilistic
// sampler implements the PINT-style overhead reduction the paper
// cites as future work ([30], [31]).
type Sampler interface {
	// Sample reports whether p should carry INT.
	Sample(p *netsim.Packet) bool
}

// AllPackets instruments every packet (the paper's deployment mode).
type AllPackets struct{}

// Sample implements Sampler.
func (AllPackets) Sample(*netsim.Packet) bool { return true }

// Probabilistic instruments each packet independently with
// probability P, using a seeded source for reproducibility.
type Probabilistic struct {
	P   float64
	rng *rand.Rand
}

// NewProbabilistic builds a sampler selecting packets with probability
// p from a deterministic seed.
func NewProbabilistic(p float64, seed int64) *Probabilistic {
	return &Probabilistic{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Sample implements Sampler.
func (s *Probabilistic) Sample(*netsim.Packet) bool { return s.rng.Float64() < s.P }
