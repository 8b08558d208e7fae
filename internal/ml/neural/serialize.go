package neural

import (
	"fmt"

	"github.com/amlight/intddos/internal/ml"
)

const neuralMagic uint64 = 0x4E4E4D4F44454C31 // "NNMODEL1"

// MarshalBinary serializes the trained layer stack and the display
// configuration.
func (n *Network) MarshalBinary() ([]byte, error) {
	if !n.ready {
		return nil, fmt.Errorf("neural: marshal of untrained model")
	}
	e := ml.NewEncoder()
	e.U64(neuralMagic)
	e.Str(n.cfg.DisplayName)
	e.Ints(n.cfg.Hidden)
	e.I64(int64(len(n.layers)))
	for _, l := range n.layers {
		e.I64(int64(l.in))
		e.I64(int64(l.out))
		e.F64s(l.w)
		e.F64s(l.b)
	}
	return e.Bytes(), nil
}

// UnmarshalBinary restores a network serialized by MarshalBinary.
func (n *Network) UnmarshalBinary(buf []byte) error {
	d := ml.NewDecoder(buf)
	if d.U64() != neuralMagic {
		return fmt.Errorf("neural: bad magic")
	}
	n.cfg.DisplayName = d.Str()
	n.cfg.Hidden = d.Ints()
	nLayers := int(d.I64())
	if d.Err() != nil || nLayers <= 0 || nLayers > 64 {
		return fmt.Errorf("neural: bad layer count")
	}
	n.layers = make([]layer, nLayers)
	for i := range n.layers {
		l := layer{in: int(d.I64()), out: int(d.I64())}
		l.w = d.F64s()
		l.b = d.F64s()
		if d.Err() != nil {
			return d.Err()
		}
		if l.in <= 0 || l.out <= 0 || len(l.w) != l.in*l.out || len(l.b) != l.out {
			return fmt.Errorf("neural: layer %d shape mismatch", i)
		}
		n.layers[i] = l
	}
	// Consecutive layers must chain.
	for i := 1; i < len(n.layers); i++ {
		if n.layers[i].in != n.layers[i-1].out {
			return fmt.Errorf("neural: layer %d input %d != previous output %d",
				i, n.layers[i].in, n.layers[i-1].out)
		}
	}
	if n.layers[len(n.layers)-1].out != 1 {
		return fmt.Errorf("neural: final layer width %d, want 1", n.layers[len(n.layers)-1].out)
	}
	n.scratch = n.newScratchPool()
	n.ready = true
	return nil
}
