package traffic

import (
	"net/netip"

	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/trace"
)

// ServerAddr is the production web server of the monitored subnet.
var ServerAddr = netip.AddrFrom4([4]byte{10, 10, 1, 100})

// Config assembles a full capture: benign background across the
// June 6–11 window plus the Table I attack episodes.
type Config struct {
	Seed int64
	// Days is the number of compressed capture days (the paper's
	// window is 6: June 6–11).
	Days int
	// DayLen is the compressed length of one capture day.
	DayLen netsim.Time
	// MinEpisode floors attack episode lengths after compression.
	MinEpisode netsim.Time

	Benign BenignConfig
	Attack AttackConfig
}

// Preset names for the three workload scales.
const (
	ScaleTiny  = "tiny"
	ScaleSmall = "small"
	ScaleFull  = "full"
)

// TinyConfig is sized for unit tests: a few thousand packets.
func TinyConfig(seed int64) Config {
	cfg := Config{
		Seed:       seed,
		Days:       6,
		DayLen:     300 * netsim.Millisecond,
		MinEpisode: 8 * netsim.Millisecond,
		Benign:     DefaultBenignConfig(ServerAddr),
		Attack:     DefaultAttackConfig(ServerAddr),
	}
	cfg.Benign.SessionsPerDay = 60
	cfg.Attack.ScanRate = 60000
	cfg.Attack.FloodRate = 200000
	cfg.Attack.LorisConns = 8
	cfg.Attack.LorisKeepalive = 2 * netsim.Millisecond
	return cfg
}

// SmallConfig is the default experiment scale: on the order of 10^5
// packets, enough for every table while keeping a full reproduction
// run in seconds.
func SmallConfig(seed int64) Config {
	cfg := Config{
		Seed:       seed,
		Days:       6,
		DayLen:     1500 * netsim.Millisecond,
		MinEpisode: 60 * netsim.Millisecond,
		Benign:     DefaultBenignConfig(ServerAddr),
		Attack:     DefaultAttackConfig(ServerAddr),
	}
	cfg.Benign.SessionsPerDay = 900
	cfg.Attack.ScanRate = 60000
	cfg.Attack.FloodRate = 120000
	cfg.Attack.FloodBurst = 24
	cfg.Attack.LorisConns = 12
	cfg.Attack.LorisKeepalive = 10 * netsim.Millisecond
	return cfg
}

// FullConfig approaches the paper's data volumes (≈10^6 packets) and
// supports the production 1-in-4096-scale sampling comparisons.
func FullConfig(seed int64) Config {
	cfg := Config{
		Seed:       seed,
		Days:       6,
		DayLen:     8 * netsim.Second,
		MinEpisode: 150 * netsim.Millisecond,
		Benign:     DefaultBenignConfig(ServerAddr),
		Attack:     DefaultAttackConfig(ServerAddr),
	}
	cfg.Benign.SessionsPerDay = 2500
	cfg.Attack.ScanRate = 60000
	cfg.Attack.FloodRate = 140000
	cfg.Attack.FloodBurst = 32
	cfg.Attack.LorisConns = 24
	cfg.Attack.LorisKeepalive = 12 * netsim.Millisecond
	return cfg
}

// ConfigForScale returns the preset named by scale, defaulting to
// small.
func ConfigForScale(scale string, seed int64) Config {
	switch scale {
	case ScaleTiny:
		return TinyConfig(seed)
	case ScaleFull:
		return FullConfig(seed)
	default:
		return SmallConfig(seed)
	}
}

// Workload is a generated capture plus its ground-truth schedule.
type Workload struct {
	Config   Config
	Schedule Schedule
	Records  []trace.Record
}

// Horizon returns the end of the capture window.
func (w *Workload) Horizon() netsim.Time {
	return netsim.Time(w.Config.Days) * w.Config.DayLen
}

// Build generates the full capture: benign background, Table I
// attacks, merged chronologically.
func Build(cfg Config) *Workload {
	rng := netsim.NewRNG(cfg.Seed)
	sched := PaperSchedule(cfg.DayLen, cfg.MinEpisode)
	var recs []trace.Record
	recs = GenerateBenign(recs, cfg.Benign, cfg.Days, cfg.DayLen, rng)
	recs = GenerateAttacks(recs, cfg.Attack, sched, rng)
	trace.SortByTime(recs)
	return &Workload{Config: cfg, Schedule: sched, Records: recs}
}
