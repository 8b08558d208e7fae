package prof

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"github.com/amlight/intddos/internal/obs"
)

// Sampling configuration for always-on production profiling: 1 in 100
// contended mutex events and one block sample per 10µs of blocked time
// keep overhead well under the 5% budget while still catching any
// contention hot enough to flatten throughput.
const (
	DefaultMutexFraction = 100
	DefaultBlockRateNs   = 10_000
)

// The capture ring: a capture every DefaultInterval unless Config says
// otherwise, each with a CPU profile of up to cpuWindow (at most half
// the interval), keepPerKind snapshots retained per profile kind.
const (
	DefaultInterval = 30 * time.Second
	cpuWindow       = 2 * time.Second
	keepPerKind     = 4
)

// Process-global sampling-rate bookkeeping. Rates are process-wide
// runtime state, but many pipelines (and tests) start and stop
// independently, so enables are refcounted: the first enable saves
// the pre-existing configuration, the last disable restores it.
var (
	rateMu       sync.Mutex
	rateUsers    int
	prevMutex    int
	curBlockRate int
)

// blockRate reports the rate most recently applied through this
// package (the runtime offers no getter).
func blockRate() int {
	rateMu.Lock()
	defer rateMu.Unlock()
	return curBlockRate
}

// EnableRates applies mutex/block profile sampling rates and returns
// an idempotent restore function. Enables nest; the outermost restore
// reinstates the pre-enable state.
func EnableRates(mutexFraction, blockRateNs int) func() {
	rateMu.Lock()
	rateUsers++
	if rateUsers == 1 {
		prevMutex = runtime.SetMutexProfileFraction(-1)
	}
	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRateNs)
	curBlockRate = blockRateNs
	rateMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			rateMu.Lock()
			defer rateMu.Unlock()
			rateUsers--
			if rateUsers == 0 {
				runtime.SetMutexProfileFraction(prevMutex)
				runtime.SetBlockProfileRate(0)
				curBlockRate = 0
			}
		})
	}
}

// Config parameterizes a Profiler. Sampling runs at DefaultMutexFraction
// and DefaultBlockRateNs, and attribution uses PipelineStages.
type Config struct {
	// Dir, when set, enables periodic on-disk profile captures into a
	// bounded ring of files (<kind>-<seq>.pprof, the newest four
	// retained per kind).
	Dir      string
	Interval time.Duration // capture period (default 30s)

	// Registry, when set, gets the attribution report (/debug/attrib),
	// pprof snapshots in diagnostic bundles, and capture counters.
	Registry *obs.Registry
}

// Profiler owns always-on contention profiling for one pipeline:
// sampling rates held enabled for its lifetime, an optional on-disk
// capture ring, and the attribution wiring on the obs registry.
type Profiler struct {
	cfg Config
	// cpuWindow is each capture's CPU profile length: cpuWindow, at
	// most half the capture interval. Tests shorten it after Start.
	cpuWindow time.Duration
	restore   func()
	quit      chan struct{}
	wg        sync.WaitGroup

	mu  sync.Mutex
	seq int

	captures    *obs.Counter
	captureErrs *obs.Counter
}

// Start enables profiling per cfg. It always succeeds in enabling
// rates and registry wiring; a capture directory that cannot be
// created is the only error path.
func Start(cfg Config) (*Profiler, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	p := &Profiler{cfg: cfg, cpuWindow: min(cpuWindow, cfg.Interval/2), quit: make(chan struct{})}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("prof: capture dir: %w", err)
		}
	}
	p.restore = EnableRates(DefaultMutexFraction, DefaultBlockRateNs)
	if reg := cfg.Registry; reg != nil {
		reg.SetAttribution(func(topN int) string {
			return Attribution(topN, nil).Format()
		})
		for _, kind := range []string{"mutex", "block", "goroutine", "heap"} {
			kind := kind
			reg.AddBundleFile("profiles/"+kind+".pb.gz", func() ([]byte, error) {
				return snapshotProfile(kind)
			})
		}
		p.captures = reg.Counter("intddos_prof_captures_total")
		p.captureErrs = reg.Counter("intddos_prof_capture_errors_total")
		reg.GaugeFunc("intddos_prof_mutex_fraction", func() float64 {
			return float64(runtime.SetMutexProfileFraction(-1))
		})
		reg.GaugeFunc("intddos_prof_block_rate_ns", func() float64 {
			return float64(blockRate())
		})
	}
	if cfg.Dir != "" {
		p.wg.Add(1)
		go p.loop()
	}
	return p, nil
}

// Stop halts the capture loop and restores the pre-Start sampling
// rates. Safe to call more than once.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	quit := p.quit
	p.quit = nil
	p.mu.Unlock()
	if quit == nil {
		return
	}
	close(quit)
	p.wg.Wait()
	p.restore()
}

func (p *Profiler) loop() {
	defer p.wg.Done()
	p.mu.Lock()
	quit := p.quit
	p.mu.Unlock()
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-quit:
			return
		case <-t.C:
			if err := p.CaptureNow(); err != nil {
				p.captureErrs.Inc()
			} else {
				p.captures.Inc()
			}
		}
	}
}

// CaptureNow writes one snapshot of every profile kind (plus a short
// CPU profile) into the capture ring, pruning each kind to keepPerKind
// files.
func (p *Profiler) CaptureNow() error {
	if p == nil || p.cfg.Dir == "" {
		return fmt.Errorf("prof: no capture directory configured")
	}
	p.mu.Lock()
	p.seq++
	seq := p.seq
	quit := p.quit
	p.mu.Unlock()

	var firstErr error
	for _, kind := range []string{"mutex", "block", "goroutine", "heap"} {
		data, err := snapshotProfile(kind)
		if err == nil {
			err = os.WriteFile(p.file(kind, seq), data, 0o644)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		p.prune(kind)
	}

	// CPU is windowed rather than cumulative; a concurrent profile
	// (e.g. someone hitting /debug/pprof/profile) makes StartCPUProfile
	// fail, which just skips this round's CPU capture.
	f, err := os.Create(p.file("cpu", seq))
	if err == nil {
		if err := pprof.StartCPUProfile(f); err == nil {
			select {
			case <-time.After(p.cpuWindow):
			case <-quit:
			}
			pprof.StopCPUProfile()
			f.Close()
		} else {
			f.Close()
			os.Remove(f.Name())
		}
		p.prune("cpu")
	} else if firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func (p *Profiler) file(kind string, seq int) string {
	return filepath.Join(p.cfg.Dir, fmt.Sprintf("%s-%06d.pprof", kind, seq))
}

// prune keeps the newest keepPerKind snapshots of one kind.
func (p *Profiler) prune(kind string) {
	matches, err := filepath.Glob(filepath.Join(p.cfg.Dir, kind+"-*.pprof"))
	if err != nil || len(matches) <= keepPerKind {
		return
	}
	sort.Strings(matches) // zero-padded sequence numbers sort chronologically
	for _, old := range matches[:len(matches)-keepPerKind] {
		os.Remove(old)
	}
}

// snapshotProfile serializes one named runtime profile in the binary
// pprof format.
func snapshotProfile(kind string) ([]byte, error) {
	prof := pprof.Lookup(kind)
	if prof == nil {
		return nil, fmt.Errorf("prof: unknown profile %q", kind)
	}
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
