package netsim

// OutputQueue models a switch egress port: a FIFO with bounded
// capacity drained at a fixed line rate. Queue depth at dequeue time
// is what Tofino-style INT exports as "queue occupancy", and is the
// quantity the paper's feature set uses.
type OutputQueue struct {
	eng *Engine

	// RateBps is the drain rate in bits per second.
	RateBps int64
	// CapPackets bounds the queue length; packets arriving when the
	// queue is full are dropped (tail drop).
	CapPackets int

	fifo      []*Packet
	bytes     int
	busyUntil Time // when the in-flight packet finishes serialization

	// OnDequeue is invoked when a packet finishes transmission, with
	// the depth (packets) and bytes remaining in the queue at the
	// moment the packet was removed.
	OnDequeue func(p *Packet, depthPkts, depthBytes int)
	// OnDrop is invoked when a packet is tail-dropped. Optional.
	OnDrop func(p *Packet)

	// Stats
	Enqueued int
	Dequeued int
	Drops    int
	MaxDepth int
}

// NewOutputQueue constructs a queue drained at rateBps with a bound of
// capPackets packets.
func NewOutputQueue(eng *Engine, rateBps int64, capPackets int) *OutputQueue {
	return &OutputQueue{eng: eng, RateBps: rateBps, CapPackets: capPackets}
}

// serializationDelay is the time to clock p onto the wire.
func (q *OutputQueue) serializationDelay(p *Packet) Time {
	bits := int64(p.Length) * 8
	return Time(bits * int64(Second) / q.RateBps)
}

// Enqueue adds a packet to the queue, dropping it if the queue is
// full. It returns false on drop.
func (q *OutputQueue) Enqueue(p *Packet) bool {
	if len(q.fifo) >= q.CapPackets {
		q.Drops++
		p.Dropped = true
		if q.OnDrop != nil {
			q.OnDrop(p)
		}
		return false
	}
	q.fifo = append(q.fifo, p)
	q.bytes += p.Length
	q.Enqueued++
	if len(q.fifo) > q.MaxDepth {
		q.MaxDepth = len(q.fifo)
	}
	if len(q.fifo) == 1 {
		q.startService()
	}
	return true
}

// startService schedules completion of the head packet's
// serialization. The queue may have been idle (busyUntil in the past)
// or this may chain from a previous completion.
func (q *OutputQueue) startService() {
	head := q.fifo[0]
	start := q.eng.Now()
	if q.busyUntil > start {
		start = q.busyUntil
	}
	done := start + q.serializationDelay(head)
	q.busyUntil = done
	q.eng.Schedule(done, q.completeService)
}

// completeService removes the head packet and reports occupancy at
// dequeue, then begins serving the next packet if any.
func (q *OutputQueue) completeService() {
	head := q.fifo[0]
	copy(q.fifo, q.fifo[1:])
	q.fifo[len(q.fifo)-1] = nil
	q.fifo = q.fifo[:len(q.fifo)-1]
	q.bytes -= head.Length
	q.Dequeued++
	if q.OnDequeue != nil {
		q.OnDequeue(head, len(q.fifo), q.bytes)
	}
	if len(q.fifo) > 0 {
		q.startService()
	}
}
