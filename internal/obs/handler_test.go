package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total").Add(5)
	reg.Gauge("queue_depth").Set(2)
	reg.Histogram("lat_seconds", nil).Observe(0.01)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"requests_total 5", "queue_depth 2", "lat_seconds_count 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, srv, "/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// Per-record traces are flow journeys, on /traces/flow only.
	if code, _ := get(t, srv, "/traces"); code != 404 {
		t.Errorf("/traces = %d, want 404", code)
	}

	code, body = get(t, srv, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	code, body = get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get(t, srv, "/nope"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestListenAndServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	srv, err := reg.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("metrics body = %q", body)
	}
}
