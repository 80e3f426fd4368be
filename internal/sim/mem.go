package sim

import (
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// RAM is a 16-bit-wide word-addressed synchronous-write, asynchronous-
// read memory macro with per-byte write lanes. Contents are three-valued
// words; power-on state is all-X per Algorithm 1 ("initialize all memory
// cells to X").
//
// Read semantics are conservative: an X address yields an all-X read.
// Write semantics are conservative too: a possible write (X write-enable)
// merges the written value into the old one, and a write to an unknown
// address merges into every word.
type RAM struct {
	addr  []netlist.GateID // word-index bus
	wdata []netlist.GateID
	rdata []netlist.GateID
	en    netlist.GateID // read/select enable
	wenLo netlist.GateID // write enable, low byte lane
	wenHi netlist.GateID // write enable, high byte lane

	words []logic.Word
}

// NewRAM creates a RAM with 1<<len(addr) words and binds its pins.
// rdata outputs must be netlist Input gates dedicated to this block.
func NewRAM(addr, wdata, rdata []netlist.GateID, en, wenLo, wenHi netlist.GateID) *RAM {
	return &RAM{
		addr: addr, wdata: wdata, rdata: rdata,
		en: en, wenLo: wenLo, wenHi: wenHi,
		words: make([]logic.Word, 1<<uint(len(addr))),
	}
}

// Size returns the number of 16-bit words.
func (r *RAM) Size() int { return len(r.words) }

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
	var out logic.Word
	en := s.Val[r.en]
	a := s.ReadBus(r.addr)
	switch {
	case en == logic.Zero:
		out = logic.KnownWord(0)
	case en == logic.X || !a.Known():
		out = logic.XWord
	default:
		out = r.words[a.Val]
	}
	for i, id := range r.rdata {
		s.BlockDrive(id, out.Bit(uint(i)))
	}
}

// Clock implements Block: commit writes from settled pin values.
func (r *RAM) Clock(s *Sim) {
	wl, wh := s.Val[r.wenLo], s.Val[r.wenHi]
	if wl == logic.Zero && wh == logic.Zero {
		return
	}
	en := s.Val[r.en]
	if en == logic.Zero {
		return
	}
	ConservativeWrite(len(r.words), s.ReadBus(r.addr), s.ReadBus(r.wdata), wl, wh, en,
		func(i uint16) logic.Word { return r.words[i] },
		func(i uint16, w logic.Word) { r.words[i] = w })
}

// ConservativeWrite commits one clocked write of data at address a to a
// memory of size words, reading word i through word and replacing it
// through set. wl and wh enable the low and high byte lanes and en
// selects the memory. A lane whose enable and select are both One is
// overwritten, a possible write (an X enable or select) merges into the
// old contents, and a write to a partially unknown address merges into
// every word the address could reach. It is the one write rule of both
// simulators' RAMs.
func ConservativeWrite(size int, a, data logic.Word, wl, wh, en logic.V, word func(uint16) logic.Word, set func(uint16, logic.Word)) {
	write := func(w logic.Word) logic.Word {
		if wl != logic.Zero {
			w = mergeLane(w, data, 0, wl == logic.One && en == logic.One)
		}
		if wh != logic.Zero {
			w = mergeLane(w, data, 8, wh == logic.One && en == logic.One)
		}
		return w
	}
	if a.Known() {
		set(a.Val, write(word(a.Val)))
		return
	}
	for i := 0; i < size; i++ {
		if (a.Val^uint16(i))&^a.Mask == 0 {
			old := word(uint16(i))
			set(uint16(i), old.Merge(write(old)))
		}
	}
}

// mergeLane writes one byte lane of data into w. If definite, the lane is
// overwritten; otherwise (possible write) the lane merges conservatively.
func mergeLane(w, data logic.Word, shift uint, definite bool) logic.Word {
	for i := uint(0); i < 8; i++ {
		bit := shift + i
		v := data.Bit(bit)
		if definite {
			w = w.SetBit(bit, v)
		} else {
			w = w.SetBit(bit, logic.Merge(w.Bit(bit), v))
		}
	}
	return w
}

// Reset implements Block: all words become X.
func (r *RAM) Reset(*Sim) {
	for i := range r.words {
		r.words[i] = logic.XWord
	}
}

// ramState is RAM's BlockState.
type ramState struct{ words []logic.Word }

// Snapshot implements Block.
func (r *RAM) Snapshot() BlockState {
	return &ramState{words: append([]logic.Word(nil), r.words...)}
}

// SnapshotInto implements SnapshotterInto: it reuses the storage of a
// recycled snapshot when its shape matches, avoiding the dominant
// allocation of the symbolic engine's state-capture path.
func (r *RAM) SnapshotInto(recycled BlockState) BlockState {
	rs, ok := recycled.(*ramState)
	if !ok || len(rs.words) != len(r.words) {
		return r.Snapshot()
	}
	copy(rs.words, r.words)
	return rs
}

// Restore implements Block.
func (r *RAM) Restore(st BlockState) {
	rs := st.(*ramState)
	copy(r.words, rs.words)
}

// Covers implements BlockState.
func (a *ramState) Covers(o BlockState) bool {
	b := o.(*ramState)
	for i := range a.words {
		if !a.words[i].Covers(b.words[i]) {
			return false
		}
	}
	return true
}

// Merge implements BlockState.
func (a *ramState) Merge(o BlockState) BlockState {
	b := o.(*ramState)
	out := make([]logic.Word, len(a.words))
	for i := range out {
		out[i] = a.words[i].Merge(b.words[i])
	}
	return &ramState{words: out}
}

// CloneEmpty returns a RAM bound to the same pins with fresh (all-X)
// contents, for simulating a derived netlist independently.
func (r *RAM) CloneEmpty() *RAM {
	c := NewRAM(r.addr, r.wdata, r.rdata, r.en, r.wenLo, r.wenHi)
	for i := range c.words {
		c.words[i] = logic.XWord
	}
	return c
}

// Pins exposes the bound pin nets for observers that need per-pin
// structure rather than the flat Inputs list (the formal equivalence
// engine encodes the macro's read function over them).
func (r *RAM) Pins() (addr, wdata, rdata []netlist.GateID, en, wenLo, wenHi netlist.GateID) {
	return r.addr, r.wdata, r.rdata, r.en, r.wenLo, r.wenHi
}

// Word returns the current contents of word index i (testbench use).
func (r *RAM) Word(i uint16) logic.Word { return r.words[i] }

// SetWord overwrites word index i (testbench use: preloading data).
func (r *RAM) SetWord(i uint16, w logic.Word) { r.words[i] = w }

// ROM is a 16-bit word-addressed asynchronous-read read-only memory
// holding the application image. Its contents are always fully known:
// the binary is an input to the analysis.
type ROM struct {
	addr  []netlist.GateID
	rdata []netlist.GateID
	en    netlist.GateID
	words []uint16
}

// NewROM creates a ROM with 1<<len(addr) words.
func NewROM(addr, rdata []netlist.GateID, en netlist.GateID) *ROM {
	return &ROM{addr: addr, rdata: rdata, en: en, words: make([]uint16, 1<<uint(len(addr)))}
}

// Load copies the image into ROM starting at word index base.
func (r *ROM) Load(base uint16, image []uint16) {
	copy(r.words[base:], image)
}

// Words exposes the backing store for loaders.
func (r *ROM) Words() []uint16 { return r.words }

// Clone returns a ROM bound to the same pins with copied contents.
func (r *ROM) Clone() *ROM {
	c := NewROM(r.addr, r.rdata, r.en)
	copy(c.words, r.words)
	return c
}

// Pins exposes the bound pin nets, mirroring (*RAM).Pins.
func (r *ROM) Pins() (addr, rdata []netlist.GateID, en netlist.GateID) {
	return r.addr, r.rdata, r.en
}

// Inputs implements Block.
func (r *ROM) Inputs() []netlist.GateID {
	return append(append([]netlist.GateID(nil), r.addr...), r.en)
}

// Outputs implements Block.
func (r *ROM) Outputs() []netlist.GateID { return r.rdata }

// Eval implements Block.
func (r *ROM) Eval(s *Sim) {
	var out logic.Word
	en := s.Val[r.en]
	a := s.ReadBus(r.addr)
	switch {
	case en == logic.Zero:
		out = logic.KnownWord(0)
	case en == logic.X || !a.Known():
		out = logic.XWord
	default:
		out = logic.KnownWord(r.words[a.Val])
	}
	for i, id := range r.rdata {
		s.BlockDrive(id, out.Bit(uint(i)))
	}
}

// Clock implements Block (no-op: read-only).
func (r *ROM) Clock(*Sim) {}

// Reset implements Block (contents persist: mask ROM).
func (r *ROM) Reset(*Sim) {}

// romState is an empty immutable state.
type romState struct{}

// Covers implements BlockState.
func (romState) Covers(BlockState) bool { return true }

// Merge implements BlockState.
func (r romState) Merge(BlockState) BlockState { return r }

// Snapshot implements Block.
func (r *ROM) Snapshot() BlockState { return romState{} }

// Restore implements Block.
func (r *ROM) Restore(BlockState) {}
