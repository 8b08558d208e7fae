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
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
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

// jkey is a test flow's key: one five-tuple per name.
func jkey(name string) flow.Key {
	h := fnv.New32a()
	h.Write([]byte(name))
	port := uint16(h.Sum32())
	return flow.Key{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: port, DstPort: 80, Proto: netsim.TCP}
}

func TestJourneysLifecycle(t *testing.T) {
	js := NewJourneys(1, 8, 1)
	s := js.Shard(0)
	if !s.ShouldSample() {
		t.Fatal("sampleEvery=1 must sample everything")
	}
	fa, fb := jkey("flowA"), jkey("flowB")
	s.Begin(&fa, 1, time.Now())
	if js.Active() != 1 {
		t.Fatalf("active = %d, want 1", js.Active())
	}
	s.Hop(&fa, 1, HopJournal)
	s.Hop(&fa, 1, HopPoll)
	s.Hop(&fb, 9, HopPoll) // unfollowed: no-op
	s.Complete(&fa, 1)
	if js.Active() != 0 {
		t.Fatalf("active after complete = %d, want 0", js.Active())
	}

	s.Begin(&fb, 2, time.Now())
	s.Abort(&fb, 2, "shed")

	recent := js.Recent()
	if len(recent) != 2 {
		t.Fatalf("finished = %d, want 2", len(recent))
	}
	a, b := recent[0], recent[1]
	if a.Flow != fa.String() || !a.Done || a.Aborted != "" {
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
	if !strings.Contains(buf.String(), fa.String()) || !strings.Contains(buf.String(), "aborted=shed") {
		t.Errorf("WriteText = %q", buf.String())
	}
}

// TestJourneysUnfollowedAllocs: while a journey is in flight, a record
// no journey follows costs its call sites one load — Following is
// false for every Seq but those sharing the followed one's low six
// bits — and never an allocation, whichever way the mask falls.
func TestJourneysUnfollowedAllocs(t *testing.T) {
	js := NewJourneys(1, 8, 1)
	s := js.Shard(0)
	followed, neighbour := jkey("followed"), jkey("neighbour")
	s.Begin(&followed, 70, time.Now())
	for seq := 0; seq < 256; seq++ {
		if got, want := s.Following(seq), seq&63 == 70&63; got != want {
			t.Fatalf("Following(%d) = %t with Seq 70 in flight", seq, got)
		}
	}
	// The neighbour passes the mask and misses the table, at its own
	// key with the followed Seq and at the followed key with a Seq that
	// shares its low bits.
	if got := testing.AllocsPerRun(1000, func() {
		for _, seq := range [...]int{70, 70 + 64} {
			s.Hop(&neighbour, seq, HopPoll)
			s.Abort(&neighbour, seq, "shed")
			s.Complete(&neighbour, seq)
		}
		s.Hop(&followed, 70+64, HopPoll)
		s.Abort(&followed, 70+64, "shed")
	}); got != 0 {
		t.Errorf("hops of an unfollowed record allocate %.0f objects, want 0", got)
	}
	s.Complete(&followed, 70)
	if s.Following(70) || js.Active() != 0 {
		t.Error("mask still set after the last journey finished")
	}
	if c, a, _ := js.Stats(); c != 1 || a != 0 {
		t.Errorf("stats = %d completed, %d aborted: the neighbour's calls reached the followed journey", c, a)
	}
}

// TestJourneysFollowedAllocs: following a record allocates nothing —
// its begin, every hop, its completion or abort, and the eviction a
// begin on a full table makes — because every record, active and
// finished, was allocated by NewJourneys.
func TestJourneysFollowedAllocs(t *testing.T) {
	js := NewJourneys(1, 2, 1) // 8 active records a shard, 2 finished
	s := js.Shard(0)
	k := jkey("followed")
	seq := 0
	follow := func(abort bool) {
		seq++
		if !s.ShouldSample() {
			panic("sampleEvery=1 skipped a row")
		}
		s.Begin(&k, seq, time.Now())
		for _, h := range [...]Hop{HopJournal, HopPoll, HopBatch, HopPredict} {
			s.Hop(&k, seq, h)
		}
		if abort {
			s.Abort(&k, seq, "shed")
		} else {
			s.Complete(&k, seq)
		}
	}
	if got := testing.AllocsPerRun(1000, func() { follow(false) }); got != 0 {
		t.Errorf("a completed journey allocates %.1f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { follow(true) }); got != 0 {
		t.Errorf("an aborted journey allocates %.1f objects, want 0", got)
	}
	// Fill the table, then every begin evicts the oldest journey.
	for js.Active() < int64(len(s.active)) {
		seq++
		s.Begin(&k, seq, time.Now())
	}
	_, _, before := js.Stats()
	if got := testing.AllocsPerRun(1000, func() {
		seq++
		s.Begin(&k, seq, time.Now())
	}); got != 0 {
		t.Errorf("a begin that evicts allocates %.1f objects, want 0", got)
	}
	if _, _, evicted := js.Stats(); evicted-before != 1001 || js.Active() != int64(len(s.active)) {
		t.Errorf("evicted %d with %d active, want 1001 evictions at a full table of %d",
			evicted-before, js.Active(), len(s.active))
	}
	completed, aborted, _ := js.Stats()
	if completed != 1001 || aborted != 1001 {
		t.Errorf("stats = %d completed, %d aborted, want 1001 each", completed, aborted)
	}
}

func TestJourneysSamplingRate(t *testing.T) {
	js := NewJourneys(4, 8, 1)
	s := js.Shard(0)
	sampled := 0
	for i := 0; i < 400; i++ {
		if s.ShouldSample() {
			sampled++
		}
	}
	if sampled != 100 {
		t.Errorf("sampled %d of 400 at 1-in-4, want 100", sampled)
	}
}

func TestJourneysEvictsWhenFull(t *testing.T) {
	js := NewJourneys(1, 1, 1) // maxActive = 4
	s := js.Shard(0)
	k := jkey("flow")
	for i := 0; i < 6; i++ {
		s.Begin(&k, i, time.Now())
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
	s := js.Shard(0)
	if s.ShouldSample() || js.Active() != 0 || js.SampleEvery() != 0 {
		t.Error("nil sampler should be inert")
	}
	k := jkey("f")
	s.Begin(&k, 1, time.Now())
	s.Hop(&k, 1, HopPoll)
	s.Complete(&k, 1)
	s.Abort(&k, 1, "shed")
	js.WriteText(io.Discard)
	if js.Recent() != nil {
		t.Error("nil Recent should be nil")
	}
}

func TestJourneysConcurrent(t *testing.T) {
	js := NewJourneys(1, 16, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		s := js.Shard(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := jkey("f")
			for i := 0; i < 200; i++ {
				seq := g*1000 + i
				s.Begin(&k, seq, time.Now())
				s.Hop(&k, seq, HopPoll)
				if i%2 == 0 {
					s.Complete(&k, seq)
				} else {
					s.Abort(&k, seq, "shed")
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

// TestJourneysReadWhileFinishing runs readers — Recent, Stats,
// Active, WriteText — against shards that begin, stamp and finish
// journeys, for the race detector: what a reader sees is always whole
// finished journeys, oldest first.
func TestJourneysReadWhileFinishing(t *testing.T) {
	const shards, rows = 4, 2000
	js := NewJourneys(1, 8, shards)
	var writers sync.WaitGroup
	for g := 0; g < shards; g++ {
		s := js.Shard(g)
		writers.Add(1)
		go func() {
			defer writers.Done()
			k := jkey("f")
			for seq := 0; seq < rows; seq++ {
				if !s.ShouldSample() {
					continue
				}
				s.Begin(&k, seq, time.Now())
				s.Hop(&k, seq, HopJournal)
				s.Hop(&k, seq, HopPoll)
				if seq%3 == 0 {
					s.Abort(&k, seq, "shed")
				} else {
					s.Complete(&k, seq)
				}
			}
		}()
	}
	done := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-done:
				return
			default:
			}
			recent := js.Recent()
			if len(recent) > 8 {
				t.Errorf("Recent returned %d journeys, keep is 8", len(recent))
			}
			for i, j := range recent {
				if !j.Done || len(j.Hops) < 3 || j.Hops[0].Name != "ingest" {
					t.Errorf("torn journey: %s", j)
				}
				if prev := recent[max(i-1, 0)]; i > 0 && j.ID%shards == prev.ID%shards && j.ID < prev.ID {
					t.Errorf("a shard's journeys out of order: %s before %s", recent[i-1], j)
				}
			}
			js.Stats()
			js.Active()
			js.WriteText(io.Discard)
		}
	}()
	writers.Wait()
	close(done)
	<-read
	completed, aborted, evicted := js.Stats()
	if completed+aborted != shards*rows || evicted != 0 || js.Active() != 0 {
		t.Errorf("completed=%d aborted=%d evicted=%d active=%d, want %d finished and none left",
			completed, aborted, evicted, js.Active(), shards*rows)
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
	js := NewJourneys(1, 4, 1)
	k := jkey("f")
	js.Shard(0).Begin(&k, 1, time.Now())
	js.Shard(0).Complete(&k, 1)
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
	js := NewJourneys(1, 4, 1)
	k := jkey("f")
	js.Shard(0).Begin(&k, 1, time.Now())
	js.Shard(0).Complete(&k, 1)
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
