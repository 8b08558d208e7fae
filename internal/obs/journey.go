package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amlight/intddos/internal/flow"
)

// JourneyHop is one timestamped waypoint of a sampled record's path
// through the pipeline.
type JourneyHop struct {
	Name string    `json:"hop"`
	At   time.Time `json:"at"`
}

// Journey is the recorded end-to-end path of one sampled flow update:
// ingest → journal → poll → batch → predict → vote, with a wall-clock
// stamp at every hop. A Journey follows one identified record across
// goroutine handoffs, so each stage — queueing included — is the gap
// between two hops. It is what a reader gets: rendered from the
// sampler's fixed-size record when Recent is called.
type Journey struct {
	ID   uint64 `json:"id"`
	Flow string `json:"flow"`
	Seq  int    `json:"seq"`
	// Hops are in path order, those the record reached. Aborted
	// carries the reason the record left the pipeline early ("shed",
	// "panic", ...), empty on a completed journey.
	Hops    []JourneyHop `json:"hops"`
	Aborted string       `json:"aborted,omitempty"`
	Done    bool         `json:"done"`
}

// Total returns the wall time from the first hop to the last.
func (j Journey) Total() time.Duration {
	if len(j.Hops) < 2 {
		return 0
	}
	return j.Hops[len(j.Hops)-1].At.Sub(j.Hops[0].At)
}

// String renders the journey as one line, hop offsets relative to the
// first hop:
//
//	#3 10.0.0.1:7>10.0.0.2:80/tcp seq=5 total=1.2ms ingest+0s journal+8µs poll+1ms ... vote+1.2ms
func (j Journey) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s seq=%d total=%v", j.ID, j.Flow, j.Seq, j.Total().Round(time.Microsecond))
	if j.Aborted != "" {
		fmt.Fprintf(&b, " aborted=%s", j.Aborted)
	} else if !j.Done {
		b.WriteString(" in-flight")
	}
	for _, h := range j.Hops {
		fmt.Fprintf(&b, " %s+%v", h.Name, h.At.Sub(j.Hops[0].At).Round(time.Microsecond))
	}
	return b.String()
}

// Journey bookkeeping defaults.
const (
	DefaultJourneySampleEvery = 256
	DefaultJourneyKeep        = 64
)

// Hop is one of the fixed waypoints of a followed record, in path
// order. Begin stamps HopIngest and Complete HopVote; the pipeline
// stamps the rest.
type Hop uint8

const (
	HopIngest  Hop = iota // the report's accept stamp at the demux
	HopJournal            // folded into its flow, pending in its shard
	HopPoll               // taken for a decision
	HopBatch              // handed to a scoring call
	HopPredict            // scored
	HopVote               // voted and logged: the journey is complete
	numHops
)

var hopNames = [numHops]string{"ingest", "journal", "poll", "batch", "predict", "vote"}

// journeyRecord is one followed record, fixed-size so that following
// it allocates nothing: the flow's key as a value (rendered only when a
// reader asks), the record's per-flow sequence, the journey's ID, and
// one wall-clock stamp per hop (0: not reached). aborted is a reason
// the pipeline passes as a constant.
type journeyRecord struct {
	key     flow.Key
	seq     int
	id      uint64
	at      [numHops]int64
	aborted string
}

// journey renders the record for a reader.
func (r *journeyRecord) journey() Journey {
	j := Journey{ID: r.id, Flow: r.key.String(), Seq: r.seq, Aborted: r.aborted, Done: true,
		Hops: make([]JourneyHop, 0, numHops)}
	for h, at := range r.at {
		if at != 0 {
			j.Hops = append(j.Hops, JourneyHop{Name: hopNames[h], At: time.Unix(0, at)})
		}
	}
	return j
}

// How a journey left the active table.
const (
	outcomeCompleted = iota
	outcomeAborted
	outcomeEvicted
)

// Journeys samples 1-in-N flow updates at ingest and follows each
// sampled record hop by hop until it is decided or leaves the pipeline.
// Following is per shard (JourneyShard): each pipeline shard owns a
// sampling counter, a Following mask and a fixed table of active
// records, all written only by that shard's passes, so a row shares
// nothing with other shards and following one allocates nothing. The
// one lock is the finished ring's: a journey that finishes (one row in
// N) copies its record in, and a reader copies the ring out. Every
// record, active or finished, is preallocated by NewJourneys. All
// methods are nil-safe.
type Journeys struct {
	every  int
	shards []JourneyShard

	mu        sync.Mutex
	ring      []journeyRecord // finished journeys; the oldest is overwritten
	next      int             // ring slot the next finished journey takes
	filled    int             // ring slots holding a journey
	completed uint64
	aborted   uint64
	evicted   uint64
}

// JourneyShard is one pipeline shard's share of the sampler. Its
// methods are for the shard that owns it: call them from one goroutine
// at a time (the pipeline calls them under the shard's run lock). A
// nil JourneyShard follows nothing.
type JourneyShard struct {
	js    *Journeys
	index int

	left   int    // rows until the next sampled one
	mask   uint64 // bit Seq&63 is set while refs[Seq&63] > 0
	begun  uint64 // journeys begun here: the next ID
	live   int    // active[:live] are in flight
	active []journeyRecord
	refs   [64]uint16
	// activeN mirrors live for readers on other goroutines (Active).
	activeN atomic.Int64
	// Keeps the next shard's row-rate fields off this one's cache line.
	_ [64]byte
}

// NewJourneys builds a sampler for a pipeline of shards shards
// (<= 0 selects 1), following 1-in-sampleEvery records on each
// (<= 0 selects DefaultJourneySampleEvery; 1 follows everything) and
// retaining the last keep finished journeys (<= 0 selects
// DefaultJourneyKeep). Each shard's active table holds 4 × keep
// records; a Begin on a full table evicts the shard's oldest journey.
func NewJourneys(sampleEvery, keep, shards int) *Journeys {
	if sampleEvery <= 0 {
		sampleEvery = DefaultJourneySampleEvery
	}
	if keep <= 0 {
		keep = DefaultJourneyKeep
	}
	shards = max(shards, 1)
	js := &Journeys{
		every:  sampleEvery,
		shards: make([]JourneyShard, shards),
		ring:   make([]journeyRecord, keep),
	}
	for i := range js.shards {
		s := &js.shards[i]
		s.js, s.index, s.left = js, i, 1
		s.active = make([]journeyRecord, 4*keep)
	}
	return js
}

// Shard returns shard i's share of the sampler (nil for a nil sampler).
func (js *Journeys) Shard(i int) *JourneyShard {
	if js == nil {
		return nil
	}
	return &js.shards[i]
}

// SampleEvery returns the sampling interval (0 for a nil sampler).
func (js *Journeys) SampleEvery() int {
	if js == nil {
		return 0
	}
	return js.every
}

// Active returns the number of journeys currently in flight.
func (js *Journeys) Active() int64 {
	if js == nil {
		return 0
	}
	var n int64
	for i := range js.shards {
		n += js.shards[i].activeN.Load()
	}
	return n
}

// ShouldSample decides whether the shard's next ingested record is
// followed: the first, and every sampleEvery-th after it.
func (s *JourneyShard) ShouldSample() bool {
	if s == nil {
		return false
	}
	if s.left--; s.left > 0 {
		return false
	}
	s.left = s.js.every
	return true
}

// Following reports whether a record with this Seq may be one of the
// shard's journeys in flight: a row whose Seq shares no low six bits
// with one stops here, at one load.
func (s *JourneyShard) Following(seq int) bool {
	return s != nil && s.mask&(1<<(uint(seq)&63)) != 0
}

// ref counts one journey in (+1) or out (-1) of the Following mask.
func (s *JourneyShard) ref(seq, delta int) {
	bit := uint(seq) & 63
	s.refs[bit] = uint16(int(s.refs[bit]) + delta)
	if s.refs[bit] > 0 {
		s.mask |= 1 << bit
	} else {
		s.mask &^= 1 << bit
	}
}

// find returns the active slot following (key, seq), or -1.
func (s *JourneyShard) find(key *flow.Key, seq int) int {
	for i := range s.active[:s.live] {
		if r := &s.active[i]; r.seq == seq && r.key == *key {
			return i
		}
	}
	return -1
}

// Begin starts following the record (key, seq) and stamps its ingest
// hop at at — the record's own arrival stamp, which may predate the
// call. A journey already following the same record, or, on a full
// table, the shard's oldest journey, is evicted into the finished ring
// as aborted ("evicted").
func (s *JourneyShard) Begin(key *flow.Key, seq int, at time.Time) {
	if s == nil {
		return
	}
	if i := s.find(key, seq); i >= 0 {
		s.finish(i, outcomeEvicted, "evicted")
	}
	if s.live == len(s.active) {
		// Evict the lowest ID: the longest-followed record, which is
		// the most likely to have leaked.
		oldest := 0
		for i := range s.active {
			if s.active[i].id < s.active[oldest].id {
				oldest = i
			}
		}
		s.finish(oldest, outcomeEvicted, "evicted")
	}
	s.begun++
	r := &s.active[s.live]
	*r = journeyRecord{key: *key, seq: seq, id: (s.begun-1)*uint64(len(s.js.shards)) + uint64(s.index) + 1}
	r.at[HopIngest] = at.UnixNano()
	s.live++
	s.ref(seq, +1)
	s.activeN.Store(int64(s.live))
}

// Hop stamps hop on the journey following (key, seq), if any.
func (s *JourneyShard) Hop(key *flow.Key, seq int, hop Hop) {
	if s.Following(seq) {
		s.stamp(key, seq, hop)
	}
}

func (s *JourneyShard) stamp(key *flow.Key, seq int, hop Hop) {
	if i := s.find(key, seq); i >= 0 {
		s.active[i].at[hop] = time.Now().UnixNano()
	}
}

// Complete stamps the vote hop on the journey following (key, seq), if
// any, and moves it into the finished ring.
func (s *JourneyShard) Complete(key *flow.Key, seq int) {
	if s.Following(seq) {
		s.end(key, seq, outcomeCompleted, "")
	}
}

// Abort records that the record (key, seq) left the pipeline early
// (shed, panic, worker down, ...) and moves its journey, if any, into
// the finished ring.
func (s *JourneyShard) Abort(key *flow.Key, seq int, reason string) {
	if s.Following(seq) {
		s.end(key, seq, outcomeAborted, reason)
	}
}

func (s *JourneyShard) end(key *flow.Key, seq int, outcome int, reason string) {
	if i := s.find(key, seq); i >= 0 {
		if outcome == outcomeCompleted {
			s.active[i].at[HopVote] = time.Now().UnixNano()
		}
		s.finish(i, outcome, reason)
	}
}

// finish retires active slot i into the ring and frees the slot.
func (s *JourneyShard) finish(i, outcome int, aborted string) {
	r := &s.active[i]
	r.aborted = aborted
	s.js.retire(r, outcome)
	s.ref(r.seq, -1)
	s.live--
	*r = s.active[s.live]
	s.activeN.Store(int64(s.live))
}

// retire copies a finished journey into the ring and counts it.
func (js *Journeys) retire(r *journeyRecord, outcome int) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.ring[js.next] = *r
	js.next = (js.next + 1) % len(js.ring)
	js.filled = min(js.filled+1, len(js.ring))
	switch outcome {
	case outcomeCompleted:
		js.completed++
	case outcomeAborted:
		js.aborted++
	default:
		js.evicted++
	}
}

// Recent returns the finished journeys, oldest first.
func (js *Journeys) Recent() []Journey {
	if js == nil {
		return nil
	}
	js.mu.Lock()
	recs := make([]journeyRecord, 0, js.filled)
	recs = append(recs, js.ring[js.next:js.filled]...)
	recs = append(recs, js.ring[:js.next]...)
	js.mu.Unlock()
	out := make([]Journey, len(recs))
	for i := range recs {
		out[i] = recs[i].journey()
	}
	return out
}

// Stats returns lifetime completed/aborted/evicted journey counts.
func (js *Journeys) Stats() (completed, aborted, evicted uint64) {
	if js == nil {
		return 0, 0, 0
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.completed, js.aborted, js.evicted
}

// WriteText renders sampler state and the finished tail, oldest first.
func (js *Journeys) WriteText(w io.Writer) {
	if js == nil {
		return
	}
	completed, aborted, evicted := js.Stats()
	fmt.Fprintf(w, "# flow journeys (1 in %d; active=%d completed=%d aborted=%d evicted=%d)\n",
		js.SampleEvery(), js.Active(), completed, aborted, evicted)
	for _, j := range js.Recent() {
		fmt.Fprintln(w, j.String())
	}
}

// SetFlowJourneys publishes the pipeline's journey sampler on the
// registry so /traces/flow and diagnostic bundles can read it. The
// last registration wins (one registry serves one pipeline).
func (r *Registry) SetFlowJourneys(js *Journeys) {
	r.mu.Lock()
	r.journeys = js
	r.mu.Unlock()
}

// FlowJourneys returns the published journey sampler (nil when none).
func (r *Registry) FlowJourneys() *Journeys {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journeys
}
