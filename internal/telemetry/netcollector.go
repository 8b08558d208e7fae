package telemetry

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amlight/intddos/internal/netsim"
)

// NetCollector is a real INT collector: it terminates report
// datagrams on a UDP socket — the same wire format the sink switch
// exports in simulation — and hands decoded reports to a subscriber.
// It is the ingestion point for running the detection pipeline
// against an actual telemetry feed instead of the simulator.
type NetCollector struct {
	conn *net.UDPConn

	// OnReport receives each decoded report with the wall-clock
	// arrival time (nanoseconds, in the repository's Time domain).
	// Called from the receive goroutine; keep it fast or hand off.
	OnReport func(r *Report, at netsim.Time)

	// MaxDatagram bounds the receive buffer (default 64 KiB).
	MaxDatagram int

	// ReadRetries bounds how many consecutive non-timeout read errors
	// the loop tolerates, with exponential backoff between attempts,
	// before giving up on the socket (default 5; negative: none). A
	// transient kernel error (ECONNREFUSED from a previous send, a
	// momentary buffer condition) no longer kills the collector.
	ReadRetries int
	// ReadRetryBackoff is the initial delay after a failed read,
	// doubling per consecutive failure (default 10ms) up to
	// ReadRetryMax (default 1s).
	ReadRetryBackoff time.Duration
	ReadRetryMax     time.Duration

	quit chan struct{}
	wg   sync.WaitGroup

	// Stats (atomics: safe to read while running).
	Received     atomic.Int64
	DecodeErrors atomic.Int64
	ReadErrors   atomic.Int64
}

// ListenReports opens a UDP socket on addr ("127.0.0.1:0" picks a
// free port). Call Start to begin receiving and Close to stop.
func ListenReports(addr string) (*NetCollector, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	return &NetCollector{
		conn:             conn,
		MaxDatagram:      64 << 10,
		ReadRetries:      5,
		ReadRetryBackoff: 10 * time.Millisecond,
		quit:             make(chan struct{}),
	}, nil
}

// Addr returns the bound address (useful with port 0).
func (c *NetCollector) Addr() net.Addr { return c.conn.LocalAddr() }

// Start launches the receive loop.
func (c *NetCollector) Start() {
	c.wg.Add(1)
	go c.loop()
}

// loop receives and decodes datagrams until Close. Timeouts are the
// idle path (the read deadline exists to observe quit); other read
// errors are counted and retried with exponential backoff up to
// ReadRetries consecutive failures before the loop gives up.
func (c *NetCollector) loop() {
	defer c.wg.Done()
	buf := make([]byte, c.MaxDatagram)
	consecErrs := 0
	for {
		// A read deadline lets the loop observe quit promptly. A
		// deadline that cannot be set means the socket is broken — and
		// without one the read below could block forever — so the
		// failure joins the read-error/retry path instead of being
		// ignored.
		err := c.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		var n int
		var raddr *net.UDPAddr
		if err == nil {
			n, raddr, err = c.conn.ReadFromUDP(buf)
		}
		select {
		case <-c.quit:
			return
		default:
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			c.ReadErrors.Add(1)
			if consecErrs >= c.ReadRetries {
				return
			}
			consecErrs++
			timer := time.NewTimer(retryDelay(c.ReadRetryBackoff, c.ReadRetryMax, consecErrs))
			select {
			case <-c.quit:
				timer.Stop()
				return
			case <-timer.C:
			}
			continue
		}
		consecErrs = 0
		rep, derr := DecodeReport(buf[:n])
		if derr != nil {
			c.DecodeErrors.Add(1)
			continue
		}
		// Stamp the exporter's transport identity so downstream
		// sequence tracking is keyed per source, never shared across
		// interleaved agent streams.
		if raddr != nil {
			rep.Source = raddr.String()
		}
		c.Received.Add(1)
		if c.OnReport != nil {
			c.OnReport(rep, netsim.Time(time.Now().UnixNano()))
		}
	}
}

// retryDelay returns the backoff before the n-th consecutive retry
// (n ≥ 1): base doubled per prior failure, clamped to max. Doubling by
// repeated shift-by-one with the clamp inside the loop keeps a large
// retry budget (ReadRetries of 64 or more) from shifting the duration
// past 63 bits — `base << 63` is zero or negative, which would turn
// the backoff into a hot spin exactly when the socket is sickest.
func retryDelay(base, max time.Duration, n int) time.Duration {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	if base >= max {
		return max
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d <<= 1
	}
	if d > max || d <= 0 {
		d = max
	}
	return d
}

// Close stops the receive loop and releases the socket.
func (c *NetCollector) Close() error {
	close(c.quit)
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// ReportSender ships encoded reports to a collector over UDP — the
// sink-switch side of a real deployment, and the test harness for
// NetCollector.
type ReportSender struct {
	conn *net.UDPConn
	inst Instruction
}

// DialReports connects a sender to a collector address, encoding hop
// metadata with the given instruction set (0 selects InstAll).
func DialReports(addr string, inst Instruction) (*ReportSender, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	if inst == 0 {
		inst = InstAll
	}
	return &ReportSender{conn: conn, inst: inst}, nil
}

// Send encodes and transmits one report.
func (s *ReportSender) Send(r *Report) error {
	_, err := s.conn.Write(r.Encode(s.inst))
	return err
}

// Close releases the socket.
func (s *ReportSender) Close() error { return s.conn.Close() }
