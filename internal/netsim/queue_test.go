package netsim

import (
	"net/netip"
	"testing"
)

func mkPacket(id uint64, length int) *Packet {
	return &Packet{
		ID:     id,
		Src:    netip.MustParseAddr("10.0.0.1"),
		Dst:    netip.MustParseAddr("10.0.0.2"),
		Proto:  TCP,
		Length: length,
	}
}

func TestQueueServesFIFO(t *testing.T) {
	eng := NewEngine()
	q := NewOutputQueue(eng, 1_000_000_000, 16) // 1 Gbps
	var served []uint64
	q.OnDequeue = func(p *Packet, _, _ int) { served = append(served, p.ID) }
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(mkPacket(i, 1000))
	}
	eng.Run()
	for i, id := range served {
		if id != uint64(i+1) {
			t.Fatalf("served order %v, want 1..5", served)
		}
	}
	if q.Dequeued != 5 || q.Enqueued != 5 {
		t.Errorf("stats enq=%d deq=%d, want 5/5", q.Enqueued, q.Dequeued)
	}
}

func TestQueueSerializationDelay(t *testing.T) {
	eng := NewEngine()
	q := NewOutputQueue(eng, 1_000_000_000, 16)
	var doneAt Time
	q.OnDequeue = func(p *Packet, _, _ int) { doneAt = eng.Now() }
	// 1000 bytes at 1 Gbps = 8000 bits / 1e9 bps = 8 µs
	q.Enqueue(mkPacket(1, 1000))
	eng.Run()
	if doneAt != 8*Microsecond {
		t.Errorf("serialization finished at %v, want 8µs", doneAt)
	}
}

func TestQueueBackToBackServiceTimes(t *testing.T) {
	eng := NewEngine()
	q := NewOutputQueue(eng, 1_000_000_000, 16)
	var times []Time
	q.OnDequeue = func(p *Packet, _, _ int) { times = append(times, eng.Now()) }
	q.Enqueue(mkPacket(1, 1000))
	q.Enqueue(mkPacket(2, 500))
	eng.Run()
	if times[0] != 8*Microsecond {
		t.Errorf("first pkt done at %v, want 8µs", times[0])
	}
	if times[1] != 12*Microsecond {
		t.Errorf("second pkt done at %v, want 12µs (chained)", times[1])
	}
}

func TestQueueOccupancyAtDequeue(t *testing.T) {
	eng := NewEngine()
	q := NewOutputQueue(eng, 1_000_000_000, 16)
	var depths []int
	q.OnDequeue = func(p *Packet, depth, _ int) { depths = append(depths, depth) }
	for i := uint64(1); i <= 4; i++ {
		q.Enqueue(mkPacket(i, 1000))
	}
	eng.Run()
	// Four back-to-back packets: when pkt 1 is dequeued, 3 remain; etc.
	want := []int{3, 2, 1, 0}
	for i := range want {
		if depths[i] != want[i] {
			t.Fatalf("depths = %v, want %v", depths, want)
		}
	}
}

func TestQueueTailDrop(t *testing.T) {
	eng := NewEngine()
	q := NewOutputQueue(eng, 1_000_000_000, 2)
	dropped := 0
	q.OnDrop = func(p *Packet) {
		dropped++
		if !p.Dropped {
			t.Error("dropped packet not marked Dropped")
		}
	}
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(mkPacket(i, 1000))
	}
	if q.Drops != 3 || dropped != 3 {
		t.Errorf("drops = %d (cb %d), want 3", q.Drops, dropped)
	}
	eng.Run()
	if q.Dequeued != 2 {
		t.Errorf("dequeued = %d, want 2", q.Dequeued)
	}
}

func TestQueueBytesAccounting(t *testing.T) {
	eng := NewEngine()
	q := NewOutputQueue(eng, 1_000_000_000, 16)
	q.Enqueue(mkPacket(1, 700))
	q.Enqueue(mkPacket(2, 300))
	if q.bytes != 1000 {
		t.Errorf("Bytes() = %d, want 1000", q.bytes)
	}
	eng.Run()
	if q.bytes != 0 || len(q.fifo) != 0 {
		t.Errorf("after drain Bytes=%d Len=%d, want 0/0", q.bytes, len(q.fifo))
	}
}

func TestQueueMaxDepthStat(t *testing.T) {
	eng := NewEngine()
	q := NewOutputQueue(eng, 1_000_000_000, 16)
	for i := uint64(1); i <= 7; i++ {
		q.Enqueue(mkPacket(i, 100))
	}
	if q.MaxDepth != 7 {
		t.Errorf("MaxDepth = %d, want 7", q.MaxDepth)
	}
	eng.Run()
}

func TestQueueIdleThenBusyAgain(t *testing.T) {
	eng := NewEngine()
	q := NewOutputQueue(eng, 1_000_000_000, 16)
	var times []Time
	q.OnDequeue = func(p *Packet, _, _ int) { times = append(times, eng.Now()) }
	q.Enqueue(mkPacket(1, 1000))
	// Second packet arrives after the queue has gone idle.
	eng.Schedule(20*Microsecond, func() { q.Enqueue(mkPacket(2, 1000)) })
	eng.Run()
	if times[0] != 8*Microsecond {
		t.Errorf("pkt1 done at %v, want 8µs", times[0])
	}
	if times[1] != 28*Microsecond {
		t.Errorf("pkt2 done at %v, want 28µs (fresh service after idle)", times[1])
	}
}
