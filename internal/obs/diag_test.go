package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRingAndRendering(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 6; i++ {
		l.Append(Event{Msg: "ev", Attrs: map[string]string{"i": string(rune('a' + i))}})
	}
	recent := l.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(recent))
	}
	if recent[0].Attrs["i"] != "c" || recent[3].Attrs["i"] != "f" {
		t.Errorf("ring tail = %v..%v, want c..f", recent[0].Attrs["i"], recent[3].Attrs["i"])
	}
	if l.Total() != 6 || l.Dropped() != 2 {
		t.Errorf("total=%d dropped=%d, want 6, 2", l.Total(), l.Dropped())
	}
	// Sequence numbers are assigned monotonically at append.
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq != recent[i-1].Seq+1 {
			t.Errorf("seq not monotonic: %d then %d", recent[i-1].Seq, recent[i].Seq)
		}
	}

	ev := Event{
		Time:  time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC),
		Level: "INFO", Msg: "worker restarted",
		Attrs: map[string]string{"worker": "2", "component": "worker"},
	}
	want := "2026-02-03T04:05:06Z INFO worker restarted component=worker worker=2"
	if got := ev.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestEventLogSlogHandler(t *testing.T) {
	l := NewEventLog(0)
	log := l.Logger()
	log.Debug("chatter") // below Info: dropped
	log.Info("checkpoint written", "path", "/tmp/x", "bytes", 123)
	log.WithGroup("store").With("shard", 3).Warn("slow", "op", "upsert")

	recent := l.Recent()
	if len(recent) != 2 {
		t.Fatalf("kept %d events, want 2 (debug dropped)", len(recent))
	}
	if recent[0].Msg != "checkpoint written" || recent[0].Attrs["bytes"] != "123" {
		t.Errorf("event 0 = %+v", recent[0])
	}
	if recent[1].Level != "WARN" || recent[1].Attrs["store.shard"] != "3" || recent[1].Attrs["store.op"] != "upsert" {
		t.Errorf("grouped attrs = %+v", recent[1].Attrs)
	}

	// Nil logs discard without panicking.
	var nilLog *EventLog
	nilLog.Logger().Info("into the void")
	nilLog.Append(Event{Msg: "x"})
	if nilLog.Recent() != nil || nilLog.Total() != 0 {
		t.Error("nil EventLog should be inert")
	}
}

func TestEventLogJSONL(t *testing.T) {
	l := NewEventLog(0)
	l.Logger().Info("pipeline started", "shards", 4)
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("jsonl line not valid JSON: %v (%q)", err, buf.String())
	}
	if ev.Msg != "pipeline started" || ev.Attrs["shards"] != "4" {
		t.Errorf("decoded = %+v", ev)
	}
}

// jid identifies a test record the way core does a real one: a hash of
// the flow, and the sequence.
func jid(flow string, seq int) JourneyID {
	h := fnv.New64a()
	h.Write([]byte(flow))
	return JourneyID{Flow: h.Sum64(), Seq: seq}
}

func TestJourneysLifecycle(t *testing.T) {
	js := NewJourneys(1, 8)
	if !js.ShouldSample() {
		t.Fatal("sampleEvery=1 must sample everything")
	}
	js.Begin(jid("flowA", 1), "flowA", "ingest", time.Now())
	if js.Active() != 1 {
		t.Fatalf("active = %d, want 1", js.Active())
	}
	js.Hop(jid("flowA", 1), "journal")
	js.Hop(jid("flowA", 1), "poll")
	js.Hop(jid("flowB", 9), "poll") // unfollowed: no-op
	js.Complete(jid("flowA", 1), "vote")
	if js.Active() != 0 {
		t.Fatalf("active after complete = %d, want 0", js.Active())
	}

	js.Begin(jid("flowB", 2), "flowB", "ingest", time.Now())
	js.Abort(jid("flowB", 2), "shed")

	recent := js.Recent()
	if len(recent) != 2 {
		t.Fatalf("finished = %d, want 2", len(recent))
	}
	a, b := recent[0], recent[1]
	if a.Flow != "flowA" || !a.Done || a.Aborted != "" {
		t.Errorf("journey A = %+v", a)
	}
	for _, hop := range []string{"ingest", "journal", "poll", "vote"} {
		found := false
		for _, h := range a.Hops {
			found = found || h.Name == hop
		}
		if !found {
			t.Errorf("journey A missing hop %q: %v", hop, a.Hops)
		}
	}
	if a.Total() < 0 {
		t.Errorf("total = %v", a.Total())
	}
	if b.Aborted != "shed" {
		t.Errorf("journey B aborted = %q, want shed", b.Aborted)
	}
	completed, aborted, evicted := js.Stats()
	if completed != 1 || aborted != 1 || evicted != 0 {
		t.Errorf("stats = %d/%d/%d, want 1/1/0", completed, aborted, evicted)
	}

	var buf bytes.Buffer
	js.WriteText(&buf)
	if !strings.Contains(buf.String(), "flowA") || !strings.Contains(buf.String(), "aborted=shed") {
		t.Errorf("WriteText = %q", buf.String())
	}
}

// TestJourneysUnfollowedAllocs: while a journey is in flight, a record
// no journey follows costs its call sites one atomic load — Following
// is false for every Seq but those sharing the followed one's low six
// bits — and never an allocation, whichever way the mask falls.
func TestJourneysUnfollowedAllocs(t *testing.T) {
	js := NewJourneys(1, 8)
	js.Begin(jid("followed", 70), "followed", "ingest", time.Now())
	for seq := 0; seq < 256; seq++ {
		if got, want := js.Following(seq), seq&63 == 70&63; got != want {
			t.Fatalf("Following(%d) = %t with Seq 70 in flight", seq, got)
		}
	}
	neighbour := jid("neighbour", 70+64) // passes the mask, misses the map
	if got := testing.AllocsPerRun(1000, func() {
		js.Hop(neighbour, "poll")
		js.Abort(neighbour, "shed")
		js.Complete(neighbour, "vote")
	}); got != 0 {
		t.Errorf("hops of an unfollowed record allocate %.0f objects, want 0", got)
	}
	js.Complete(jid("followed", 70), "vote")
	if js.Following(70) || js.Active() != 0 {
		t.Error("mask still set after the last journey finished")
	}
	if c, a, _ := js.Stats(); c != 1 || a != 0 {
		t.Errorf("stats = %d completed, %d aborted: the neighbour's calls reached the followed journey", c, a)
	}
}

func TestJourneysSamplingRate(t *testing.T) {
	js := NewJourneys(4, 8)
	sampled := 0
	for i := 0; i < 400; i++ {
		if js.ShouldSample() {
			sampled++
		}
	}
	if sampled != 100 {
		t.Errorf("sampled %d of 400 at 1-in-4, want 100", sampled)
	}
}

func TestJourneysEvictsWhenFull(t *testing.T) {
	js := NewJourneys(1, 1) // maxActive = 4
	for i := 0; i < 6; i++ {
		js.Begin(jid("flow", i), "flow", "ingest", time.Now())
	}
	if js.Active() != 4 {
		t.Errorf("active = %d, want capped at 4", js.Active())
	}
	_, _, evicted := js.Stats()
	if evicted != 2 {
		t.Errorf("evicted = %d, want 2", evicted)
	}
}

func TestJourneysNilSafe(t *testing.T) {
	var js *Journeys
	if js.ShouldSample() || js.Active() != 0 || js.SampleEvery() != 0 {
		t.Error("nil sampler should be inert")
	}
	js.Begin(jid("f", 1), "f", "ingest", time.Now())
	js.Hop(jid("f", 1), "poll")
	js.Complete(jid("f", 1), "vote")
	js.Abort(jid("f", 1), "shed")
	js.WriteText(io.Discard)
	if js.Recent() != nil {
		t.Error("nil Recent should be nil")
	}
}

func TestJourneysConcurrent(t *testing.T) {
	js := NewJourneys(1, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seq := g*1000 + i
				js.Begin(jid("f", seq), "f", "ingest", time.Now())
				js.Hop(jid("f", seq), "poll")
				if i%2 == 0 {
					js.Complete(jid("f", seq), "vote")
				} else {
					js.Abort(jid("f", seq), "shed")
				}
			}
		}()
	}
	wg.Wait()
	completed, aborted, evicted := js.Stats()
	if completed+aborted+evicted+uint64(js.Active()) != 800 {
		t.Errorf("accounting leak: completed=%d aborted=%d evicted=%d active=%d",
			completed, aborted, evicted, js.Active())
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	RegisterRuntimeMetrics(reg) // idempotent

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	body := buf.String()
	for _, want := range []string{"go_goroutines", "go_heap_objects_bytes", "go_gc_cycles_total", "go_sched_latency_seconds"} {
		if !strings.Contains(body, want) {
			t.Errorf("runtime metrics missing %q", want)
		}
	}
	// Sanity: the process has at least one goroutine and a live heap.
	snap := reg.Snapshot()
	if g := snap.Gauges["go_goroutines"]; g < 1 {
		t.Errorf("go_goroutines = %v", g)
	}
	if h := snap.Gauges["go_heap_objects_bytes"]; h <= 0 {
		t.Errorf("go_heap_objects_bytes = %v", h)
	}
}

// readBundle decodes a bundle into name → content.
func readBundle(t *testing.T, raw []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	files := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		files[hdr.Name] = data
	}
	return files
}

func TestWriteBundleRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("intddos_reports_total").Add(7)
	reg.Events().Logger().Info("pipeline started", "shards", 2)
	js := NewJourneys(1, 4)
	js.Begin(jid("f", 1), "f", "ingest", time.Now())
	js.Complete(jid("f", 1), "vote")
	reg.SetFlowJourneys(js)
	reg.SetAttribution(func(topN int) string { return "attrib report top=" + string(rune('0'+topN%10)) })
	reg.AddBundleFile("profiles/mutex.pb.gz", func() ([]byte, error) { return []byte{1, 2, 3}, nil })
	reg.AddBundleFile("broken.bin", func() ([]byte, error) { return nil, errors.New("boom") })
	reg.AddBundleFile("broken.bin", func() ([]byte, error) { return []byte("dup"), nil }) // first wins

	var buf bytes.Buffer
	if err := reg.WriteBundle(&buf); err != nil {
		t.Fatal(err)
	}
	files := readBundle(t, buf.Bytes())

	for _, want := range []string{"meta.txt", "metrics.prom", "metrics.txt", "health.txt", "events.jsonl", "journeys.txt", "attrib.txt", "profiles/mutex.pb.gz", "broken.bin.error"} {
		if _, ok := files[want]; !ok {
			t.Errorf("bundle missing %s (have %v)", want, keys(files))
		}
	}
	if !strings.Contains(string(files["metrics.prom"]), "intddos_reports_total 7") {
		t.Errorf("metrics.prom = %q", files["metrics.prom"])
	}
	if !strings.Contains(string(files["events.jsonl"]), "pipeline started") {
		t.Errorf("events.jsonl = %q", files["events.jsonl"])
	}
	if !strings.Contains(string(files["journeys.txt"]), "flow journeys") {
		t.Errorf("journeys.txt = %q", files["journeys.txt"])
	}
	if !bytes.Equal(files["profiles/mutex.pb.gz"], []byte{1, 2, 3}) {
		t.Errorf("extra file corrupted: %v", files["profiles/mutex.pb.gz"])
	}
	if !strings.Contains(string(files["broken.bin.error"]), "boom") {
		t.Errorf("error entry = %q", files["broken.bin.error"])
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDiagnosticEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Events().Logger().Info("worker restarted", "worker", "1")
	js := NewJourneys(1, 4)
	js.Begin(jid("f", 1), "f", "ingest", time.Now())
	js.Complete(jid("f", 1), "vote")
	reg.SetFlowJourneys(js)
	reg.SetAttribution(func(topN int) string { return "== blocked time by pipeline stage ==" })

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/debug/events")
	if code != 200 || !strings.Contains(body, "worker restarted") {
		t.Errorf("/debug/events = %d %q", code, body)
	}
	code, body = get(t, srv, "/debug/events?format=json")
	if code != 200 || !strings.Contains(body, `"msg":"worker restarted"`) {
		t.Errorf("/debug/events?format=json = %d %q", code, body)
	}
	code, body = get(t, srv, "/traces/flow")
	if code != 200 || !strings.Contains(body, "vote") {
		t.Errorf("/traces/flow = %d %q", code, body)
	}
	code, body = get(t, srv, "/debug/attrib")
	if code != 200 || !strings.Contains(body, "blocked time by pipeline stage") {
		t.Errorf("/debug/attrib = %d %q", code, body)
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/bundle = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Errorf("bundle content-type = %q", ct)
	}
	files := readBundle(t, raw)
	if _, ok := files["meta.txt"]; !ok {
		t.Errorf("bundle over HTTP missing meta.txt: %v", keys(files))
	}

	// An empty registry still serves the endpoints, with hints.
	bare := httptest.NewServer(NewRegistry().Handler())
	defer bare.Close()
	if code, body := get(t, bare, "/traces/flow"); code != 200 || !strings.Contains(body, "no flow-journey sampler") {
		t.Errorf("bare /traces/flow = %d %q", code, body)
	}
	if code, body := get(t, bare, "/debug/attrib"); code != 200 || !strings.Contains(body, "no attribution producer") {
		t.Errorf("bare /debug/attrib = %d %q", code, body)
	}
}
