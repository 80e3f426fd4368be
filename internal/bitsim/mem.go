// Lane-aware memory macros. The RAM stores its contents in plane form —
// words[i][b] is bit b of word i across all 64 lanes — so the common
// lockstep case (all lanes reading/writing the same known address)
// costs one plane copy per bit, and diverged lanes fall back to a
// per-lane path that reproduces the scalar RAM's conservative X
// semantics exactly: an X address reads all-X, a possible write (X
// write-enable) merges, a write to an unknown address merges into every
// reachable word. The ROM keeps one concrete image per lane, aliasing a
// shared base image until a lane is given its own program (mutant
// packing), so the uniform case stays a single-word broadcast. Both
// macros look only at the simulator's live lanes: the lockstep checks
// ask whether the live lanes agree, the per-lane paths serve live lanes
// only, and every other lane reads all-X.
package bitsim

import (
	"math/bits"

	"bespoke/internal/logic"
	"bespoke/internal/msp430"
	"bespoke/internal/netlist"
	"bespoke/internal/sim"
)

// uniformKnown reports whether every lane in m of w holds the same
// known value, and that value.
func uniformKnown(w W, m uint64) (logic.V, bool) {
	if w.D&m != m {
		return logic.X, false
	}
	switch w.V & m {
	case 0:
		return logic.Zero, true
	case m:
		return logic.One, true
	}
	return logic.X, false
}

// laneWord extracts lane l of a 16-bit bus whose planes are in p.
func laneWord(p []W, l int) logic.Word {
	var w logic.Word
	for i := range p {
		w = w.SetBit(uint(i), p[i].Lane(l))
	}
	return w
}

// ROM is the lane-aware asynchronous-read program memory: concrete
// contents per lane, aliased to a shared base image until a lane is
// customized with its own program.
type ROM struct {
	addr  []netlist.GateID
	rdata []netlist.GateID
	en    netlist.GateID

	base    []uint16
	lanes   [Lanes][]uint16 // each aliases base until customized
	uniform bool

	in []W // scratch: addr planes
}

// NewROM builds a lane-aware ROM bound to the same pins as the scalar
// macro, with all lanes sharing a zeroed base image.
func NewROM(scalar interface {
	Pins() (addr, rdata []netlist.GateID, en netlist.GateID)
	Words() []uint16
}) *ROM {
	addr, rdata, en := scalar.Pins()
	r := &ROM{
		addr: addr, rdata: rdata, en: en,
		base:    make([]uint16, len(scalar.Words())),
		uniform: true,
		in:      make([]W, len(addr)),
	}
	for l := range r.lanes {
		r.lanes[l] = r.base
	}
	return r
}

// LoadProgram writes an image into the shared base (all lanes that still
// alias it) with cpu.LoadProgram's byte packing (msp430.LoadROM).
func (r *ROM) LoadProgram(image []byte, loadAddr uint16) error {
	return msp430.LoadROM(r.base, image, loadAddr)
}

// LoadLaneProgram gives lane l a private copy of the base image with the
// given program loaded over it (mutant packing: every lane runs its own
// binary on the shared netlist).
func (r *ROM) LoadLaneProgram(l int, image []byte, loadAddr uint16) error {
	words := append([]uint16(nil), r.base...)
	if err := msp430.LoadROM(words, image, loadAddr); err != nil {
		return err
	}
	r.lanes[l] = words
	r.uniform = false
	return nil
}

// LaneWord returns word index i of lane l's image.
func (r *ROM) LaneWord(l int, i uint16) uint16 { return r.lanes[l][i] }

// Inputs implements Block.
func (r *ROM) Inputs() []netlist.GateID {
	return append(append([]netlist.GateID(nil), r.addr...), r.en)
}

// Outputs implements Block.
func (r *ROM) Outputs() []netlist.GateID { return r.rdata }

// Eval implements Block: combinational read across all lanes.
func (r *ROM) Eval(s *Sim) {
	en := s.Val[r.en]
	for i, id := range r.addr {
		r.in[i] = s.Val[id]
	}
	if ev, ok := uniformKnown(en, s.live); ok {
		if ev == logic.Zero {
			r.driveOut(s, func(int) logic.Word { return logic.KnownWord(0) }, true)
			return
		}
		if r.uniform {
			uni := true
			var a uint16
			for i := range r.in {
				bv, bok := uniformKnown(r.in[i], s.live)
				if !bok {
					uni = false
					break
				}
				if bv == logic.One {
					a |= 1 << uint(i)
				}
			}
			if uni {
				r.driveOut(s, func(int) logic.Word { return logic.KnownWord(r.base[a]) }, true)
				return
			}
		}
	}
	r.driveOut(s, func(l int) logic.Word {
		switch s.Val[r.en].Lane(l) {
		case logic.Zero:
			return logic.KnownWord(0)
		case logic.X:
			return logic.XWord
		}
		a := laneWord(r.in, l)
		if !a.Known() {
			return logic.XWord
		}
		return logic.KnownWord(r.lanes[l][a.Val])
	}, false)
}

// driveOut assembles the live lanes' words into output planes and
// drives them. When broadcast is set, word(0) applies to every lane.
func (r *ROM) driveOut(s *Sim, word func(l int) logic.Word, broadcast bool) {
	var outV, outD [16]uint64
	if broadcast {
		w := word(0)
		for b := range r.rdata {
			outV[b] = Splat(w.Bit(uint(b))).V
			outD[b] = Splat(w.Bit(uint(b))).D
		}
	} else {
		for m := s.live; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			w := word(l)
			bit := uint64(1) << uint(l)
			for b := range r.rdata {
				switch w.Bit(uint(b)) {
				case logic.One:
					outV[b] |= bit
					outD[b] |= bit
				case logic.Zero:
					outD[b] |= bit
				}
			}
		}
	}
	for b, id := range r.rdata {
		s.BlockDrive(id, W{outV[b] & s.live, outD[b] & s.live})
	}
}

// Clock implements Block (no-op: read-only).
func (r *ROM) Clock(*Sim) {}

// Reset implements Block (contents persist: mask ROM).
func (r *ROM) Reset(*Sim) {}

// RAM is the lane-aware data memory. Contents are stored as bit planes
// per word; power-on state is all-X in every lane.
type RAM struct {
	addr  []netlist.GateID
	wdata []netlist.GateID
	rdata []netlist.GateID
	en    netlist.GateID
	wenLo netlist.GateID
	wenHi netlist.GateID

	words [][16]W

	ain, din []W // scratch: addr and wdata planes
}

// NewRAM builds a lane-aware RAM bound to the same pins as the scalar
// macro.
func NewRAM(scalar interface {
	Pins() (addr, wdata, rdata []netlist.GateID, en, wenLo, wenHi netlist.GateID)
	Size() int
}) *RAM {
	addr, wdata, rdata, en, wenLo, wenHi := scalar.Pins()
	return &RAM{
		addr: addr, wdata: wdata, rdata: rdata,
		en: en, wenLo: wenLo, wenHi: wenHi,
		words: make([][16]W, scalar.Size()),
		ain:   make([]W, len(addr)),
		din:   make([]W, len(wdata)),
	}
}

// SetLaneWord overwrites word index i in lane l only (per-lane workload
// preloading).
func (r *RAM) SetLaneWord(l int, i uint16, w logic.Word) {
	for b := 0; b < 16; b++ {
		r.words[i][b] = r.words[i][b].SetLane(l, w.Bit(uint(b)))
	}
}

// LaneWord reads word index i of lane l.
func (r *RAM) LaneWord(l int, i uint16) logic.Word {
	var w logic.Word
	for b := 0; b < 16; b++ {
		w = w.SetBit(uint(b), r.words[i][b].Lane(l))
	}
	return w
}

// Inputs implements Block.
func (r *RAM) Inputs() []netlist.GateID {
	in := append([]netlist.GateID(nil), r.addr...)
	in = append(in, r.wdata...)
	return append(in, r.en, r.wenLo, r.wenHi)
}

// Outputs implements Block.
func (r *RAM) Outputs() []netlist.GateID { return r.rdata }

// Eval implements Block: combinational read.
func (r *RAM) Eval(s *Sim) {
	en := s.Val[r.en]
	for i, id := range r.addr {
		r.ain[i] = s.Val[id]
	}
	var outV, outD [16]uint64
	ev, eok := uniformKnown(en, s.live)
	if eok && ev == logic.Zero {
		for b := range outD {
			outD[b] = ^uint64(0)
		}
		r.driveOut(s, &outV, &outD)
		return
	}
	if eok && ev == logic.One {
		uni := true
		var a uint16
		for i := range r.ain {
			bv, bok := uniformKnown(r.ain[i], s.live)
			if !bok {
				uni = false
				break
			}
			if bv == logic.One {
				a |= 1 << uint(i)
			}
		}
		if uni {
			w := &r.words[a]
			for b := range r.rdata {
				outV[b] = w[b].V
				outD[b] = w[b].D
			}
			r.driveOut(s, &outV, &outD)
			return
		}
	}
	// Per-lane slow path: some live lane has an X enable or the addresses
	// diverged.
	for m := s.live; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		bit := uint64(1) << uint(l)
		switch en.Lane(l) {
		case logic.Zero:
			for b := range outD {
				outD[b] |= bit // known zero
			}
			continue
		case logic.X:
			continue // all-X read
		}
		a := laneWord(r.ain, l)
		if !a.Known() {
			continue // X address: all-X read
		}
		w := &r.words[a.Val]
		for b := range r.rdata {
			outV[b] |= w[b].V & bit
			outD[b] |= w[b].D & bit
		}
	}
	r.driveOut(s, &outV, &outD)
}

// driveOut drives the read data of the live lanes; the others read X.
func (r *RAM) driveOut(s *Sim, outV, outD *[16]uint64) {
	for b, id := range r.rdata {
		s.BlockDrive(id, W{outV[b] & s.live, outD[b] & s.live})
	}
}

// Clock implements Block: commit writes from settled pin values,
// per-lane, with the scalar RAM's conservative merge semantics.
func (r *RAM) Clock(s *Sim) {
	wl, wh := s.Val[r.wenLo], s.Val[r.wenHi]
	en := s.Val[r.en]
	wlv, wlok := uniformKnown(wl, s.live)
	whv, whok := uniformKnown(wh, s.live)
	env, enok := uniformKnown(en, s.live)
	// No live lane can write: both enables known-zero, or the select
	// known-zero.
	if (wlok && wlv == logic.Zero && whok && whv == logic.Zero) || (enok && env == logic.Zero) {
		return
	}
	for i, id := range r.addr {
		r.ain[i] = s.Val[id]
	}
	for i, id := range r.wdata {
		r.din[i] = s.Val[id]
	}

	// Lockstep fast path: every control pin and the address are uniform
	// and known across the live lanes, so one plane-level write covers
	// them all at once (the data planes themselves may still differ per
	// lane).
	if wlok && whok && enok {
		uni := true
		var a uint16
		for i := range r.ain {
			bv, bok := uniformKnown(r.ain[i], s.live)
			if !bok {
				uni = false
				break
			}
			if bv == logic.One {
				a |= 1 << uint(i)
			}
		}
		if uni {
			w := &r.words[a]
			if wlv == logic.One {
				for b := 0; b < 8; b++ {
					w[b] = r.din[b]
				}
			}
			if whv == logic.One {
				for b := 8; b < 16; b++ {
					w[b] = r.din[b]
				}
			}
			return
		}
	}

	// Per-lane slow path: the scalar RAM's write rule, one live lane at a
	// time.
	for m := s.live; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		wlL, whL, enL := wl.Lane(l), wh.Lane(l), en.Lane(l)
		if (wlL == logic.Zero && whL == logic.Zero) || enL == logic.Zero {
			continue
		}
		sim.ConservativeWrite(len(r.words), laneWord(r.ain, l), laneWord(r.din, l), wlL, whL, enL,
			func(i uint16) logic.Word { return r.LaneWord(l, i) },
			func(i uint16, w logic.Word) { r.SetLaneWord(l, i, w) })
	}
}

// Reset implements Block: all words become X in every lane.
func (r *RAM) Reset(*Sim) {
	for i := range r.words {
		r.words[i] = [16]W{}
	}
}
