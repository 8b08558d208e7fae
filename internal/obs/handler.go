package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler returns the registry's HTTP surface:
//
//	/metrics       Prometheus text exposition format
//	/healthz       pipeline health: healthy/degraded + detail (200),
//	               shedding + detail (503), or "ok" when no health
//	               callback is wired (SetHealth)
//	/traces/flow   recent sampled flow journeys (per-hop timestamps)
//	/debug/attrib  contention attribution report (?top=N)
//	/debug/events  structured event tail (?format=json for JSONL)
//	/debug/bundle  diagnostic bundle (tar.gz download)
//	/debug/pprof   the standard Go profiling endpoints
//	/              an index of the above
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		h, ok := r.Health()
		if !ok {
			fmt.Fprintln(w, "ok")
			return
		}
		// Degraded still serves best-effort answers, so it stays 200
		// for liveness probes; shedding is losing records and returns
		// 503 so orchestrators can react.
		if h.State == StateShedding {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, h.State)
		for _, d := range h.Detail {
			fmt.Fprintln(w, d)
		}
	})
	mux.HandleFunc("/traces/flow", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		js := r.FlowJourneys()
		if js == nil {
			fmt.Fprintln(w, "# no flow-journey sampler wired (Registry.SetFlowJourneys)")
			return
		}
		js.WriteText(w)
	})
	mux.HandleFunc("/debug/attrib", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		topN := 20
		if s := req.URL.Query().Get("top"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				topN = n
			}
		}
		report, ok := r.Attribution(topN)
		if !ok {
			fmt.Fprintln(w, "# no attribution producer wired (internal/obs/prof)")
			return
		}
		fmt.Fprint(w, report)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, req *http.Request) {
		ev := r.Events()
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			ev.WriteJSONL(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "# events (%d total, %d evicted)\n", ev.Total(), ev.Dropped())
		ev.WriteText(w)
	})
	mux.HandleFunc("/debug/bundle", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/gzip")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q",
				"intddos-diag-"+time.Now().UTC().Format("20060102T150405")+"Z.tar.gz"))
		if err := r.WriteBundle(w); err != nil {
			// Headers are gone; all we can do is cut the stream short so
			// the client sees a truncated archive instead of a valid one.
			return
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "intddos observability endpoints:")
		for _, p := range []string{
			"/metrics", "/healthz", "/traces/flow",
			"/debug/attrib", "/debug/events", "/debug/bundle", "/debug/pprof/",
		} {
			fmt.Fprintln(w, "  "+p)
		}
	})
	return mux
}

// Server is a running observability HTTP listener.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// ListenAndServe starts serving the registry's Handler on addr
// (":9090", "127.0.0.1:0", ...) in a background goroutine. Close the
// returned server to stop.
func (r *Registry) ListenAndServe(addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(lis)
	return &Server{lis: lis, srv: srv}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }
