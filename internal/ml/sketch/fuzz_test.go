package sketch

import (
	"encoding/binary"
	"testing"
)

// FuzzSketch drives the update/query path with an arbitrary byte
// stream decoded as flow-key hashes and checks the structural
// invariants that the triage path relies on: count-min never
// underestimates, totals close, and the derived signals stay in
// range. The committed seed corpus lives in testdata/fuzz/FuzzSketch
// and the target is folded into `make fuzz-smoke`.
func FuzzSketch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0xdeadbeefcafef00d))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Small dimensions make collisions (the interesting case)
		// likely even for short inputs.
		s := New(3, 64)
		exact := map[uint64]uint64{}
		var updates uint64
		for len(data) > 0 {
			var h uint64
			if len(data) >= 8 {
				h = binary.LittleEndian.Uint64(data[:8])
				data = data[8:]
			} else {
				for _, b := range data {
					h = h<<8 | uint64(b)
				}
				data = nil
			}
			s.Update(h)
			exact[h]++
			updates++

			if est := s.Estimate(h); est < exact[h] {
				t.Fatalf("estimate %d < exact %d for %x", est, exact[h], h)
			}
			if s.Suspicious(h, 0.05, 0.3, 4) && s.total.Load() < 4 {
				t.Fatal("suspicious verdict below minSample")
			}
		}
		if s.total.Load() != updates {
			t.Fatalf("total %d != updates %d", s.total.Load(), updates)
		}
		for h, want := range exact {
			if est := s.Estimate(h); est < want {
				t.Fatalf("final estimate %d < exact %d for %x", est, want, h)
			}
			if est := s.Estimate(h); est > updates {
				t.Fatalf("estimate %d exceeds stream length %d", est, updates)
			}
		}
		if e := s.Entropy(); e < 0 || e > 1 {
			t.Fatalf("entropy out of range: %v", e)
		}
		if o := s.Occupancy(); o < 0 || o > 1 {
			t.Fatalf("occupancy out of range: %v", o)
		}
	})
}
