// Package fault is the repository's deterministic fault-injection
// layer: a seed-driven Injector that decides, site by site, when the
// faults of a Spec fire, plus wrappers that thread those decisions
// into the store (transient errors, shard stalls), the models
// (per-model scoring failures, injected latency), and the telemetry
// feed (report drop, corruption, delay). The live pipeline (core.Live)
// consumes the injector directly for shard panics and telemetry
// faults and through the wrappers for everything else.
//
// Determinism: every fault site owns its own RNG seeded from the
// master seed hashed with the site name, so the decision sequence at
// each site is a pure function of (seed, call count) — independent of
// goroutine interleaving across sites. The chaos tests replay the
// same seed to get the same schedule.
//
// Accounting: the injector counts every fired fault per site and
// keeps a taint set of flow keys whose records a fault touched. A
// chaos run can therefore separate flows with faulted history from
// fault-free flows and assert the latter decide bit-identically to a
// no-fault run.
//
// All methods are nil-safe: a nil *Injector injects nothing, so the
// hot path pays one branch when fault injection is off.
package fault

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amlight/intddos/internal/telemetry"
)

// ErrInjected is the transient error injected into store operations
// and model scoring calls. Consumers should treat it like any other
// transient failure: retry, back off, or degrade.
var ErrInjected = errors.New("fault: injected transient error")

// InjectedPanic is the value injected shard panics carry, so panic
// recovery can tell a scheduled fault from a genuine bug in logs.
type InjectedPanic struct{ Site string }

func (p InjectedPanic) Error() string { return "fault: injected panic at " + p.Site }

// Fault site names, used for per-site RNG derivation and counts.
const (
	SiteDrop           = "drop"
	SiteCorrupt        = "corrupt"
	SiteDelay          = "delay"
	SiteStoreErr       = "store_err"
	SiteStoreStall     = "store_stall"
	SiteWorkerPanic    = "worker_panic"
	SiteModelFail      = "model_fail"
	SitePredictLatency = "predict_latency"
)

// Sites lists every fault site name, in stable order.
func Sites() []string {
	return []string{
		SiteDrop, SiteCorrupt, SiteDelay, SiteStoreErr, SiteStoreStall,
		SiteWorkerPanic, SiteModelFail, SitePredictLatency,
	}
}

// site is one fault point's private RNG and fire counter.
type site struct {
	mu    sync.Mutex
	rng   *rand.Rand
	fired atomic.Int64
}

// roll draws one uniform [0,1) variate.
func (s *site) roll() float64 {
	s.mu.Lock()
	v := s.rng.Float64()
	s.mu.Unlock()
	return v
}

// fraction draws a uniform scaling factor in (0,1]; used to spread
// injected delays instead of firing a single fixed duration.
func (s *site) fraction() float64 {
	s.mu.Lock()
	v := 1 - s.rng.Float64()
	s.mu.Unlock()
	return v
}

// Injector decides when the faults of a Spec fire. Construct with
// New; the zero value and nil inject nothing. Safe for concurrent
// use.
type Injector struct {
	spec Spec
	seed int64

	sites map[string]*site

	taintMu sync.Mutex
	tainted map[string]struct{}
}

// New builds an injector for the spec with per-site RNGs derived from
// seed.
func New(spec Spec, seed int64) *Injector {
	in := &Injector{
		spec:    spec,
		seed:    seed,
		sites:   make(map[string]*site, 8),
		tainted: make(map[string]struct{}),
	}
	for _, name := range Sites() {
		in.sites[name] = &site{rng: rand.New(rand.NewSource(deriveSeed(seed, name)))}
	}
	return in
}

// Parse is ParseSpec + New in one call.
func Parse(specStr string, seed int64) (*Injector, error) {
	spec, err := ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	if spec.Zero() {
		return nil, nil
	}
	return New(spec, seed), nil
}

// deriveSeed mixes the site name into the master seed (FNV-1a), so
// each site's decision stream is independent of the others.
func deriveSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Spec returns the injector's schedule (zero for nil).
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// Seed returns the master seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// hit fires the site with probability p, counting fired faults.
func (in *Injector) hit(name string, p float64) bool {
	if in == nil || p <= 0 {
		return false
	}
	s := in.sites[name]
	if p < 1 && s.roll() >= p {
		return false
	}
	s.fired.Add(1)
	return true
}

// DropReport reports whether the next telemetry report should be
// dropped before ingestion.
func (in *Injector) DropReport() bool {
	return in.hit(SiteDrop, in.Spec().Drop)
}

// CorruptReport scrambles the report's payload fields in place with
// the spec's corruption probability, returning whether it fired. The
// scramble is drawn from the site RNG, so a seeded schedule corrupts
// the same way every run.
func (in *Injector) CorruptReport(r *telemetry.Report) bool {
	if !in.hit(SiteCorrupt, in.Spec().Corrupt) {
		return false
	}
	s := in.sites[SiteCorrupt]
	s.mu.Lock()
	r.Length ^= uint16(s.rng.Intn(1 << 16))
	for i := range r.Hops {
		r.Hops[i].QueueDepth ^= uint32(s.rng.Intn(1 << 16))
	}
	s.mu.Unlock()
	return true
}

// ReportDelay returns how long to delay the next report's ingestion
// (zero: no delay).
func (in *Injector) ReportDelay() time.Duration {
	if !in.hit(SiteDelay, in.Spec().DelayP) {
		return 0
	}
	return time.Duration(float64(in.spec.Delay) * in.sites[SiteDelay].fraction())
}

// StoreErr returns ErrInjected when a transient store failure fires.
func (in *Injector) StoreErr() error {
	if in.hit(SiteStoreErr, in.Spec().StoreErr) {
		return ErrInjected
	}
	return nil
}

// StoreStall returns how long the next store operation should stall.
func (in *Injector) StoreStall() time.Duration {
	if !in.hit(SiteStoreStall, in.Spec().StoreStallP) {
		return 0
	}
	return time.Duration(float64(in.spec.StoreStall) * in.sites[SiteStoreStall].fraction())
}

// WorkerPanicNow reports whether a shard should panic at the start of
// its next scoring micro-batch.
func (in *Injector) WorkerPanicNow() bool {
	return in.hit(SiteWorkerPanic, in.Spec().WorkerPanic)
}

// ModelFail reports whether the named model's next scoring call
// should fail. A "*" entry in the spec applies to every model; a
// named entry overrides it.
func (in *Injector) ModelFail(name string) bool {
	spec := in.Spec()
	if len(spec.ModelFail) == 0 {
		return false
	}
	p, ok := spec.ModelFail[name]
	if !ok {
		p, ok = spec.ModelFail["*"]
		if !ok {
			return false
		}
	}
	return in.hit(SiteModelFail, p)
}

// PredictDelay returns the injected latency for the next model
// scoring call (zero: none).
func (in *Injector) PredictDelay() time.Duration {
	if !in.hit(SitePredictLatency, in.Spec().PredictLatencyP) {
		return 0
	}
	return time.Duration(float64(in.spec.PredictLatency) * in.sites[SitePredictLatency].fraction())
}

// Taint marks a flow key as touched by a fault. The pipeline taints
// every key whose record a fault dropped, corrupted, delayed,
// abandoned, or scored under a degraded ensemble, so chaos tests can
// compare only fault-free flows against a clean run.
func (in *Injector) Taint(key string) {
	if in == nil {
		return
	}
	in.taintMu.Lock()
	in.tainted[key] = struct{}{}
	in.taintMu.Unlock()
}

// IsTainted reports whether a fault touched the key's history.
func (in *Injector) IsTainted(key string) bool {
	if in == nil {
		return false
	}
	in.taintMu.Lock()
	_, ok := in.tainted[key]
	in.taintMu.Unlock()
	return ok
}

// TaintCount returns the number of tainted flow keys.
func (in *Injector) TaintCount() int {
	if in == nil {
		return 0
	}
	in.taintMu.Lock()
	n := len(in.tainted)
	in.taintMu.Unlock()
	return n
}

// Counts returns fired-fault counts per site (only sites that fired).
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	out := make(map[string]int64)
	for name, s := range in.sites {
		if n := s.fired.Load(); n > 0 {
			out[name] = n
		}
	}
	return out
}

// SiteCount returns how many times one site fired (0 for nil).
func (in *Injector) SiteCount(name string) int64 {
	if in == nil {
		return 0
	}
	s, ok := in.sites[name]
	if !ok {
		return 0
	}
	return s.fired.Load()
}

// Summary renders the fired-fault counts as one line, stable order.
func (in *Injector) Summary() string {
	counts := in.Counts()
	if len(counts) == 0 {
		return "no faults fired"
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for i, name := range names {
		if i > 0 {
			out += " "
		}
		out += name + "=" + strconv.FormatInt(counts[name], 10)
	}
	return out
}
