package equiv

import (
	"fmt"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
	"bespoke/internal/symexec"
)

// Frame is one Tseitin-encoded combinational frame of a netlist: every
// gate has a CNF variable for its settled output value, and clauses tie
// each combinational gate to its inputs. Flip-flop and Input gates are
// free variables (the frame quantifies over all states and inputs; the
// environment clauses then restrict them to reachable ones).
//
// The type is exported so internal/induct can unroll several frames of
// the same netlist over one solver, chaining each flip-flop's output
// variable at cycle t+1 to its D-input variable at cycle t via the
// shared map of NewFrame.
type Frame struct {
	s    *sat.Solver
	vars []sat.Var // indexed by GateID
}

// Lit returns the literal asserting gate g carries value v in the frame.
func (f *Frame) Lit(g netlist.GateID, v logic.V) sat.Lit {
	return sat.MkLit(f.vars[g], v == logic.Zero)
}

// Var returns the CNF variable of gate g in the frame.
func (f *Frame) Var(g netlist.GateID) sat.Var { return f.vars[g] }

// Solver returns the solver the frame's clauses live on.
func (f *Frame) Solver() *sat.Solver { return f.s }

// NewFrame allocates variables for every gate of n on s and adds the
// combinational constraint clauses. Multiple frames may share one solver
// (the miter encodes two, an induction unrolling encodes k+1); shared
// maps gate IDs to pre-existing variables that the new frame must reuse
// instead of allocating (nil for none).
func NewFrame(s *sat.Solver, n *netlist.Netlist, shared map[netlist.GateID]sat.Var) (*Frame, error) {
	f := &Frame{s: s, vars: make([]sat.Var, len(n.Gates))}
	for i := range n.Gates {
		if v, ok := shared[netlist.GateID(i)]; ok {
			f.vars[i] = v
		} else {
			f.vars[i] = s.NewVar()
		}
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		v := f.vars[i]
		in := func(p int) sat.Var { return f.vars[g.In[p]] }
		switch g.Kind {
		case netlist.Const0:
			s.AddClause(sat.Neg(v))
		case netlist.Const1:
			s.AddClause(sat.Pos(v))
		case netlist.Input, netlist.Dff:
			// Free.
		case netlist.Buf:
			a := in(0)
			s.AddClause(sat.Neg(v), sat.Pos(a))
			s.AddClause(sat.Pos(v), sat.Neg(a))
		case netlist.Not:
			a := in(0)
			s.AddClause(sat.Neg(v), sat.Neg(a))
			s.AddClause(sat.Pos(v), sat.Pos(a))
		case netlist.And:
			a, b := in(0), in(1)
			s.AddClause(sat.Neg(v), sat.Pos(a))
			s.AddClause(sat.Neg(v), sat.Pos(b))
			s.AddClause(sat.Pos(v), sat.Neg(a), sat.Neg(b))
		case netlist.Nand:
			a, b := in(0), in(1)
			s.AddClause(sat.Pos(v), sat.Pos(a))
			s.AddClause(sat.Pos(v), sat.Pos(b))
			s.AddClause(sat.Neg(v), sat.Neg(a), sat.Neg(b))
		case netlist.Or:
			a, b := in(0), in(1)
			s.AddClause(sat.Pos(v), sat.Neg(a))
			s.AddClause(sat.Pos(v), sat.Neg(b))
			s.AddClause(sat.Neg(v), sat.Pos(a), sat.Pos(b))
		case netlist.Nor:
			a, b := in(0), in(1)
			s.AddClause(sat.Neg(v), sat.Neg(a))
			s.AddClause(sat.Neg(v), sat.Neg(b))
			s.AddClause(sat.Pos(v), sat.Pos(a), sat.Pos(b))
		case netlist.Xor:
			a, b := in(0), in(1)
			s.AddClause(sat.Neg(v), sat.Pos(a), sat.Pos(b))
			s.AddClause(sat.Neg(v), sat.Neg(a), sat.Neg(b))
			s.AddClause(sat.Pos(v), sat.Neg(a), sat.Pos(b))
			s.AddClause(sat.Pos(v), sat.Pos(a), sat.Neg(b))
		case netlist.Xnor:
			a, b := in(0), in(1)
			s.AddClause(sat.Pos(v), sat.Pos(a), sat.Pos(b))
			s.AddClause(sat.Pos(v), sat.Neg(a), sat.Neg(b))
			s.AddClause(sat.Neg(v), sat.Neg(a), sat.Pos(b))
			s.AddClause(sat.Neg(v), sat.Pos(a), sat.Neg(b))
		case netlist.Mux:
			a, b, sel := in(0), in(1), in(2)
			// v = sel ? b : a
			s.AddClause(sat.Neg(sel), sat.Neg(b), sat.Pos(v))
			s.AddClause(sat.Neg(sel), sat.Pos(b), sat.Neg(v))
			s.AddClause(sat.Pos(sel), sat.Neg(a), sat.Pos(v))
			s.AddClause(sat.Pos(sel), sat.Pos(a), sat.Neg(v))
			// Redundant but propagation-strengthening: both data equal.
			s.AddClause(sat.Pos(a), sat.Pos(b), sat.Neg(v))
			s.AddClause(sat.Neg(a), sat.Neg(b), sat.Pos(v))
		default:
			return nil, fmt.Errorf("equiv: cannot encode gate %d of kind %s", i, g.Kind)
		}
	}
	return f, nil
}

// ROMSpec describes a ROM macro for encoding: its pin nets and the loaded
// image. The read function is encoded exactly: en=0 reads as zero, en=1
// reads words[addr].
type ROMSpec struct {
	Addr  []netlist.GateID
	Data  []netlist.GateID
	En    netlist.GateID
	Words []uint16
}

// RAMSpec describes a RAM macro. Its contents are unconstrained (the
// frame quantifies over all memory states); only the enable gating is
// encoded: en=0 reads as zero.
type RAMSpec struct {
	Addr  []netlist.GateID
	WData []netlist.GateID
	Data  []netlist.GateID
	En    netlist.GateID
	WEnLo netlist.GateID
	WEnHi netlist.GateID
}

// EncodeROM adds the exact read function of spec to the frame:
//
//	en = 0           -> data = 0
//	en = 1, addr = a -> data = Words[a]
//
// The encoding exploits that the image is mostly zero: a match term is
// introduced only for nonzero words, and data bits are pulled down by
// "no nonzero word with this bit matched" clauses.
func EncodeROM(f *Frame, spec ROMSpec) {
	s := f.s
	en := sat.Pos(f.vars[spec.En])
	dataBit := func(j int) sat.Var { return f.vars[spec.Data[j]] }

	// en=0 -> all data bits 0.
	for j := range spec.Data {
		s.AddClause(en, sat.Neg(dataBit(j)))
	}

	// Match terms for nonzero words: m_a <-> (addr == a).
	type matched struct {
		word uint16
		m    sat.Var
	}
	var ms []matched
	for a, w := range spec.Words {
		if w == 0 {
			continue
		}
		if a >= 1<<uint(len(spec.Addr)) {
			break
		}
		m := s.NewVar()
		long := make([]sat.Lit, 0, len(spec.Addr)+1)
		long = append(long, sat.Pos(m))
		for i, bit := range spec.Addr {
			l := sat.MkLit(f.vars[bit], a>>uint(i)&1 == 0)
			s.AddClause(sat.Neg(m), l)
			long = append(long, l.Not())
		}
		s.AddClause(long...)
		ms = append(ms, matched{word: w, m: m})
	}

	// Forward: en & m_a -> data bits of Words[a] set.
	for _, ma := range ms {
		for j := range spec.Data {
			if ma.word>>uint(j)&1 == 1 {
				s.AddClause(en.Not(), sat.Neg(ma.m), sat.Pos(dataBit(j)))
			}
		}
	}
	// Backward: data bit j set -> en and some matched word with bit j.
	for j := range spec.Data {
		s.AddClause(sat.Neg(dataBit(j)), en)
		pull := []sat.Lit{sat.Neg(dataBit(j))}
		for _, ma := range ms {
			if ma.word>>uint(j)&1 == 1 {
				pull = append(pull, sat.Pos(ma.m))
			}
		}
		s.AddClause(pull...)
	}
}

// EncodeRAMGate adds the enable gating of a RAM: en=0 -> data reads 0.
// With en=1 the data stays free (contents are unconstrained).
func EncodeRAMGate(f *Frame, spec RAMSpec) {
	en := sat.Pos(f.vars[spec.En])
	for _, d := range spec.Data {
		f.s.AddClause(en, sat.Neg(f.vars[d]))
	}
}

// encodeDomains constrains each recorded bus to its observed value set:
// at least one cube per bus must hold, encoded as the cube-set invariant
// over the bus's bits. Exceeded or empty domains add no constraint
// (unconstrained is always sound). These are the DYNAMIC hypotheses of
// the legacy environment; with proved invariants present
// (Env.Invariants) they are not encoded at all.
func encodeDomains(f *Frame, domains []symexec.BusDomain) {
	for _, d := range domains {
		if !d.Exceeded {
			(&Invariant{Bits: d.Bits, Cubes: d.Words}).Encode(f)
		}
	}
}

// xorVar introduces d <-> (a != b) and returns d.
func xorVar(s *sat.Solver, a, b sat.Var) sat.Var {
	d := s.NewVar()
	s.AddClause(sat.Neg(d), sat.Pos(a), sat.Pos(b))
	s.AddClause(sat.Neg(d), sat.Neg(a), sat.Neg(b))
	s.AddClause(sat.Pos(d), sat.Neg(a), sat.Pos(b))
	s.AddClause(sat.Pos(d), sat.Pos(a), sat.Neg(b))
	return d
}
