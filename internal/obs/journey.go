package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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
// between two hops.
type Journey struct {
	ID   uint64 `json:"id"`
	Flow string `json:"flow"`
	Seq  int    `json:"seq"`
	// Hops are in arrival order. Aborted carries the reason the record
	// left the pipeline early ("shed", "panic", ...), empty on a
	// completed journey.
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

// JourneyID identifies one record to the sampler without rendering
// anything: Flow is a hash of the flow key (flow.Key.Hash), Seq the
// record's per-flow sequence.
type JourneyID struct {
	Flow uint64
	Seq  int
}

// Journeys samples 1-in-N flow updates at ingest and follows each
// sampled record hop by hop until it is decided or leaves the pipeline.
// The unsampled hot path pays one atomic increment (ShouldSample) and
// each later call site one atomic load: Following(seq) tests a 64-bit
// mask of the sequence numbers in flight, so while a journey is being
// followed only rows sharing its Seq mod 64 — not every row of every
// flow — go on to hash their key and take the lock. All methods are
// nil-safe.
type Journeys struct {
	every     uint64
	maxActive int

	n       atomic.Uint64
	ids     atomic.Uint64
	activeN atomic.Int64
	seqMask atomic.Uint64 // bit Seq&63 is set while seqRefs[Seq&63] > 0

	mu        sync.Mutex
	active    map[JourneyID]*Journey
	seqRefs   [64]int
	ring      []Journey
	next      int
	completed uint64
	aborted   uint64
	evicted   uint64
}

// NewJourneys builds a sampler following 1-in-sampleEvery records
// (<= 0 selects DefaultJourneySampleEvery; 1 follows everything) and
// retaining the last keep finished journeys (<= 0 selects
// DefaultJourneyKeep).
func NewJourneys(sampleEvery, keep int) *Journeys {
	if sampleEvery <= 0 {
		sampleEvery = DefaultJourneySampleEvery
	}
	if keep <= 0 {
		keep = DefaultJourneyKeep
	}
	return &Journeys{
		every:     uint64(sampleEvery),
		maxActive: 4 * keep,
		active:    make(map[JourneyID]*Journey),
		ring:      make([]Journey, 0, keep),
	}
}

// SampleEvery returns the sampling interval (0 for a nil sampler).
func (js *Journeys) SampleEvery() int {
	if js == nil {
		return 0
	}
	return int(js.every)
}

// ShouldSample decides whether the next ingested record is followed.
func (js *Journeys) ShouldSample() bool {
	if js == nil {
		return false
	}
	return js.n.Add(1)%js.every == 1 || js.every == 1
}

// Active returns the number of journeys currently in flight.
func (js *Journeys) Active() int64 {
	if js == nil {
		return 0
	}
	return js.activeN.Load()
}

// Following reports whether a record with this Seq may be one of the
// journeys in flight. Call sites test it before they build a JourneyID.
func (js *Journeys) Following(seq int) bool {
	return js != nil && js.seqMask.Load()&(1<<(uint(seq)&63)) != 0
}

// refSeqLocked counts one journey in (+1) or out (-1) of the Following
// mask. Caller holds js.mu.
func (js *Journeys) refSeqLocked(seq, delta int) {
	bit := uint(seq) & 63
	js.seqRefs[bit] += delta
	if js.seqRefs[bit] > 0 {
		js.seqMask.Store(js.seqMask.Load() | 1<<bit)
	} else {
		js.seqMask.Store(js.seqMask.Load() &^ (1 << bit))
	}
}

// Begin starts following the record id, rendered as flow in the
// output, and records its first hop at at — the record's own arrival
// stamp, which may predate the call. If the active set is full, the
// oldest entry is evicted into the finished ring as aborted
// ("evicted").
func (js *Journeys) Begin(id JourneyID, flow string, hop string, at time.Time) {
	if js == nil {
		return
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	if _, dup := js.active[id]; dup {
		js.finishLocked(id, "", "evicted")
		js.evicted++
	}
	if len(js.active) >= js.maxActive {
		// Evict the entry with the lowest ID: the longest-followed
		// record, which is the most likely to have leaked.
		var oldest JourneyID
		var oldestID uint64
		for k, j := range js.active {
			if oldestID == 0 || j.ID < oldestID {
				oldest, oldestID = k, j.ID
			}
		}
		js.finishLocked(oldest, "", "evicted")
		js.evicted++
	}
	j := &Journey{
		ID:   js.ids.Add(1),
		Flow: flow,
		Seq:  id.Seq,
		Hops: []JourneyHop{{Name: hop, At: at}},
	}
	js.active[id] = j
	js.refSeqLocked(id.Seq, +1)
	js.activeN.Store(int64(len(js.active)))
}

// Hop stamps the named hop on an in-flight journey (a no-op for
// unfollowed records).
func (js *Journeys) Hop(id JourneyID, hop string) {
	if !js.Following(id.Seq) {
		return
	}
	now := time.Now()
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.active[id]; ok {
		j.Hops = append(j.Hops, JourneyHop{Name: hop, At: now})
	}
}

// Complete stamps the final hop and moves the journey into the
// finished ring.
func (js *Journeys) Complete(id JourneyID, hop string) {
	if !js.Following(id.Seq) {
		return
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.finishLocked(id, hop, "") {
		js.completed++
	}
}

// Abort records that the followed record left the pipeline early
// (shed, panic, worker down, ...) and moves it into the finished ring.
func (js *Journeys) Abort(id JourneyID, reason string) {
	if !js.Following(id.Seq) {
		return
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.finishLocked(id, "", reason) {
		js.aborted++
	}
}

// finishLocked retires one active journey into the ring. Caller holds
// js.mu.
func (js *Journeys) finishLocked(id JourneyID, hop, aborted string) bool {
	j, ok := js.active[id]
	if !ok {
		return false
	}
	delete(js.active, id)
	js.refSeqLocked(id.Seq, -1)
	js.activeN.Store(int64(len(js.active)))
	if hop != "" {
		j.Hops = append(j.Hops, JourneyHop{Name: hop, At: time.Now()})
	}
	j.Aborted = aborted
	j.Done = true
	if len(js.ring) < cap(js.ring) {
		js.ring = append(js.ring, *j)
		return true
	}
	js.ring[js.next] = *j
	js.next = (js.next + 1) % cap(js.ring)
	return true
}

// Recent returns the finished journeys, oldest first.
func (js *Journeys) Recent() []Journey {
	if js == nil {
		return nil
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]Journey, 0, len(js.ring))
	out = append(out, js.ring[js.next:]...)
	out = append(out, js.ring[:js.next]...)
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
