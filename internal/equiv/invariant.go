package equiv

import (
	"fmt"
	"strings"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
)

// Invariant is one reachable-state fact about the base netlist, in one of
// two shapes:
//
//   - a CUBE-SET invariant (Bits non-empty): the named bus only ever
//     takes values covered by one of the Cubes, in every reachable
//     settled frame;
//   - an IMPLICATION invariant (Bits empty): whenever net From carries
//     FromVal, net To carries ToVal.
//
// Invariants in Env.Invariants must be PROVED facts — internal/induct
// discharges each one by k-induction before it is ever handed to the
// prover (its K records the depth). They replace the recorded dynamic
// bus domains in the environment: same constraining power, but backed by
// an induction proof instead of an observation.
type Invariant struct {
	// Name labels the invariant for reports ("r0", "imp ...").
	Name string
	// K is the induction depth at which the invariant was discharged
	// (0 for hypotheses that were never proved — the prover rejects
	// those).
	K int
	// Bits and Cubes describe a cube-set invariant over a bus, LSB
	// first; bit i of a cube's Val/Mask corresponds to Bits[i], and a
	// set Mask bit means "unconstrained in this cube".
	Bits  []netlist.GateID
	Cubes []logic.Word
	// From/To describe an implication invariant.
	From, To       netlist.GateID
	FromVal, ToVal logic.V
}

// IsCube reports whether the invariant is in cube-set shape.
func (iv *Invariant) IsCube() bool { return len(iv.Bits) > 0 }

// String renders a compact human-readable form.
func (iv *Invariant) String() string {
	if iv.IsCube() {
		return fmt.Sprintf("%s in %d cubes @k=%d", iv.Name, len(iv.Cubes), iv.K)
	}
	name := iv.Name
	if name == "" {
		name = fmt.Sprintf("g%d=%s -> g%d=%s", iv.From, iv.FromVal, iv.To, iv.ToVal)
	}
	return name + fmt.Sprintf(" @k=%d", iv.K)
}

// Encode adds the invariant's clauses to frame f, each prefixed with the
// given guard literals: with an empty guard the invariant holds
// unconditionally in the frame; with guard = {¬sel} it holds whenever
// sel is assumed. Cube-set invariants with no cubes (empty reachable
// set would be unsatisfiable — never produced by a sound engine) and
// out-of-range widths add no constraint.
func (iv *Invariant) Encode(f *Frame, guard ...sat.Lit) {
	s := f.s
	if iv.IsCube() {
		if len(iv.Cubes) == 0 {
			return
		}
		sel := make([]sat.Lit, 0, len(iv.Cubes)+len(guard))
		sel = append(sel, guard...)
		for _, w := range iv.Cubes {
			c := s.NewVar()
			sel = append(sel, sat.Pos(c))
			for i, bit := range iv.Bits {
				if i >= 16 || w.Mask>>uint(i)&1 == 1 {
					continue // X bit: unconstrained in this cube
				}
				s.AddClause(sat.Neg(c), sat.MkLit(f.vars[bit], w.Val>>uint(i)&1 == 0))
			}
		}
		s.AddClause(sel...)
		return
	}
	// Implication: From=FromVal -> To=ToVal, i.e. ¬(From=FromVal) ∨ To=ToVal.
	cl := make([]sat.Lit, 0, len(guard)+2)
	cl = append(cl, guard...)
	cl = append(cl, f.Lit(iv.From, iv.FromVal).Not(), f.Lit(iv.To, iv.ToVal))
	s.AddClause(cl...)
}

// EncodeViolation adds clauses binding a fresh variable v such that
// v -> (the invariant is violated in frame f), and returns Pos(v).
// The reverse direction is intentionally left open: a model may set v
// false on a violated invariant, so callers re-check candidates against
// the model with Holds rather than trusting v (induct's Houdini loop
// does exactly that).
func (iv *Invariant) EncodeViolation(f *Frame) sat.Lit {
	s := f.s
	v := s.NewVar()
	if iv.IsCube() {
		// Violated = every cube mismatches on some known bit.
		for _, w := range iv.Cubes {
			m := s.NewVar()
			s.AddClause(sat.Neg(v), sat.Pos(m))
			diff := []sat.Lit{sat.Neg(m)}
			for i, bit := range iv.Bits {
				if i >= 16 || w.Mask>>uint(i)&1 == 1 {
					continue
				}
				want := w.Val>>uint(i)&1 == 1
				diff = append(diff, sat.MkLit(f.vars[bit], want)) // bit != cube value
			}
			s.AddClause(diff...)
		}
		return sat.Pos(v)
	}
	s.AddClause(sat.Neg(v), f.Lit(iv.From, iv.FromVal))
	s.AddClause(sat.Neg(v), f.Lit(iv.To, iv.ToVal).Not())
	return sat.Pos(v)
}

// Holds evaluates the invariant in a concrete frame valuation given by
// val (the gate's boolean value in a model).
func (iv *Invariant) Holds(val func(netlist.GateID) bool) bool {
	if iv.IsCube() {
		for _, w := range iv.Cubes {
			match := true
			for i, bit := range iv.Bits {
				if i >= 16 || w.Mask>>uint(i)&1 == 1 {
					continue
				}
				if val(bit) != (w.Val>>uint(i)&1 == 1) {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	}
	if val(iv.From) != (iv.FromVal == logic.One) {
		return true // antecedent false: implication holds
	}
	return val(iv.To) == (iv.ToVal == logic.One)
}

// FormatInvariants renders a one-line-per-invariant table body.
func FormatInvariants(invs []Invariant) string {
	var b strings.Builder
	for i := range invs {
		fmt.Fprintf(&b, "  %s\n", invs[i].String())
	}
	return b.String()
}
