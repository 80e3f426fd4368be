// Package netlist defines the flat gate-level netlist representation that
// every stage of the bespoke flow operates on: circuit construction,
// simulation, symbolic activity analysis, cutting and stitching,
// re-synthesis, timing, placement and power analysis.
//
// A netlist is a directed graph of gates. Each gate drives exactly one
// net, identified with the gate itself (GateID), so "gate" and "net" are
// used interchangeably. Sequential elements are DFF gates clocked by the
// single implicit clock; memory arrays are not part of the netlist (they
// are behavioral blocks attached by the simulator), but the bus logic
// around them is, mirroring how macro-based SoCs count gates.
package netlist

import (
	"fmt"
	"sort"

	"bespoke/internal/logic"
)

// GateID identifies a gate and the net it drives. The zero GateID is
// reserved as "no connection" via the None constant.
type GateID int32

// None marks an unused input slot.
const None GateID = -1

// Kind enumerates gate types. The set is deliberately small (2-input
// logic, a 2:1 mux and a DFF) so that simulation, timing and power
// modeling stay simple; the builder composes everything else from these.
type Kind uint8

const (
	// Const0 drives constant 0. Used for stitching cut gates.
	Const0 Kind = iota
	// Const1 drives constant 1.
	Const1
	// Input is a primary input port (driven by the testbench/simulator).
	Input
	// Buf is a buffer: out = a.
	Buf
	// Not is an inverter: out = !a.
	Not
	// And is a 2-input AND.
	And
	// Or is a 2-input OR.
	Or
	// Nand is a 2-input NAND.
	Nand
	// Nor is a 2-input NOR.
	Nor
	// Xor is a 2-input XOR.
	Xor
	// Xnor is a 2-input XNOR.
	Xnor
	// Mux is a 2:1 multiplexer: out = sel ? b : a, inputs (a, b, sel).
	Mux
	// Dff is a rising-edge D flip-flop with synchronous reset-to-value.
	// Input a is D. Its reset value is in Gate.Reset.
	Dff
	numKinds
)

var kindNames = [...]string{
	Const0: "const0", Const1: "const1", Input: "input", Buf: "buf",
	Not: "not", And: "and", Or: "or", Nand: "nand", Nor: "nor",
	Xor: "xor", Xnor: "xnor", Mux: "mux", Dff: "dff",
}

// String returns the lowercase cell name of k.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NumKinds is the number of gate kinds, for building tables indexed by Kind.
const NumKinds = int(numKinds)

// NumInputs returns how many input pins a gate of kind k has.
func (k Kind) NumInputs() int {
	switch k {
	case Const0, Const1, Input:
		return 0
	case Buf, Not, Dff:
		return 1
	case Mux:
		return 3
	default:
		return 2
	}
}

// IsSeq reports whether k is a sequential element.
func (k Kind) IsSeq() bool { return k == Dff }

// Eval computes the three-valued output of a combinational gate of kind k
// from its input values. It must not be called for Dff or Input.
func (k Kind) Eval(a, b, sel logic.V) logic.V {
	switch k {
	case Const0:
		return logic.Zero
	case Const1:
		return logic.One
	case Buf:
		return a
	case Not:
		return logic.Not(a)
	case And:
		return logic.And(a, b)
	case Or:
		return logic.Or(a, b)
	case Nand:
		return logic.Not(logic.And(a, b))
	case Nor:
		return logic.Not(logic.Or(a, b))
	case Xor:
		return logic.Xor(a, b)
	case Xnor:
		return logic.Not(logic.Xor(a, b))
	case Mux:
		return logic.Mux(sel, a, b)
	}
	panic("netlist: Eval of non-combinational kind " + k.String()) // panic-ok: Eval of a stateful kind is a caller contract violation
}

// ModuleID indexes Netlist.Modules. Module 0 is always the root ("").
type ModuleID int32

// Gate is one cell instance. In[0..2] are the input pins; unused pins are
// None. For Mux, In = (a, b, sel). For Dff, In[0] is D.
type Gate struct {
	Kind   Kind
	In     [3]GateID
	Module ModuleID
	// Reset is the value loaded into a Dff while reset is asserted.
	// Only meaningful for Dff gates.
	Reset logic.V
	// Name optionally labels the net for debugging and port maps.
	Name string
}

// Port is a named primary output: the net that leaves the design.
type Port struct {
	Name string
	Gate GateID
}

// Netlist is a flat gate-level design.
type Netlist struct {
	Gates   []Gate
	Modules []string // Modules[0] == ""
	// Inputs lists primary input gates in declaration order.
	Inputs []GateID
	// Outputs lists primary output ports.
	Outputs []Port

	fanout  [][]GateID // lazily built
	levels  []int32    // lazily built topological levels
	maxLvl  int32
	ordered []GateID // combinational gates in level order
}

// New returns an empty netlist with the root module defined.
func New() *Netlist {
	return &Netlist{Modules: []string{""}}
}

// AddModule registers (or finds) a module path and returns its ID.
func (n *Netlist) AddModule(path string) ModuleID {
	for i, m := range n.Modules {
		if m == path {
			return ModuleID(i)
		}
	}
	n.Modules = append(n.Modules, path)
	return ModuleID(len(n.Modules) - 1)
}

// Add appends a gate and returns its ID. Unused input pins are
// normalized to None. It invalidates derived tables.
func (n *Netlist) Add(g Gate) GateID {
	n.invalidate()
	for p := g.Kind.NumInputs(); p < 3; p++ {
		g.In[p] = None
	}
	n.Gates = append(n.Gates, g)
	id := GateID(len(n.Gates) - 1)
	if g.Kind == Input {
		n.Inputs = append(n.Inputs, id)
	}
	return id
}

// MarkOutput declares net g as a primary output named name.
func (n *Netlist) MarkOutput(name string, g GateID) {
	n.Outputs = append(n.Outputs, Port{Name: name, Gate: g})
}

// invalidate drops derived tables after a mutation.
func (n *Netlist) invalidate() {
	n.fanout = nil
	n.levels = nil
	n.ordered = nil
}

// InvalidateDerived drops the cached fanout/level tables after in-place
// gate edits (used by the cutting and re-synthesis passes).
func (n *Netlist) InvalidateDerived() { n.invalidate() }

// CellCount returns the number of real cells, excluding Input ports and
// constants, which occupy no silicon.
func (n *Netlist) CellCount() int {
	c := 0
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case Input, Const0, Const1:
		default:
			c++
		}
	}
	return c
}

// Fanout returns, for every gate, the list of gates that read its output.
// The result is cached until the netlist is mutated.
func (n *Netlist) Fanout() [][]GateID {
	if n.fanout != nil {
		return n.fanout
	}
	fo := make([][]GateID, len(n.Gates))
	deg := make([]int32, len(n.Gates))
	for i := range n.Gates {
		g := &n.Gates[i]
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			if in := g.In[p]; in != None {
				deg[in]++
			}
		}
	}
	for i := range fo {
		if deg[i] > 0 {
			fo[i] = make([]GateID, 0, deg[i])
		}
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			if in := g.In[p]; in != None {
				fo[in] = append(fo[in], GateID(i))
			}
		}
	}
	n.fanout = fo
	return fo
}

// Levels computes, for every gate, its combinational topological level:
// the levels of Compile's schedule with no blocks attached. Inputs,
// constants and DFFs are level 0; a combinational gate is one more than
// the max level of its inputs (DFF outputs count as level 0 sources, and
// DFF D-pins do not constrain anything). It returns an error if the
// combinational logic has a cycle. The result is cached until the
// netlist is mutated.
func (n *Netlist) Levels() ([]int32, int32, error) {
	if n.levels != nil {
		return n.levels, n.maxLvl, nil
	}
	lv, maxLvl, err := levelize(n, nil)
	if err != nil {
		return nil, 0, err
	}
	n.levels, n.maxLvl = lv, maxLvl
	return lv, maxLvl, nil
}

// TopoOrder returns all combinational (non-Dff, non-source) gates sorted
// by level, suitable for single-pass evaluation.
func (n *Netlist) TopoOrder() ([]GateID, error) {
	if n.ordered != nil {
		return n.ordered, nil
	}
	lv, _, err := n.Levels()
	if err != nil {
		return nil, err
	}
	var comb []GateID
	for i := range n.Gates {
		k := n.Gates[i].Kind
		if !k.IsSeq() && k.NumInputs() > 0 {
			comb = append(comb, GateID(i))
		}
	}
	sort.Slice(comb, func(a, b int) bool { return lv[comb[a]] < lv[comb[b]] })
	n.ordered = comb
	return comb, nil
}

// DffIDs returns the IDs of all flip-flops in the design.
func (n *Netlist) DffIDs() []GateID {
	var ids []GateID
	for i := range n.Gates {
		if n.Gates[i].Kind == Dff {
			ids = append(ids, GateID(i))
		}
	}
	return ids
}

// ModuleOf returns the module path string of gate id.
func (n *Netlist) ModuleOf(id GateID) string { return n.Modules[n.Gates[id].Module] }

// GatesByModule returns a map from top-level module name (the first path
// component) to the gates inside it. Gates in the root module map to "glue".
func (n *Netlist) GatesByModule() map[string][]GateID {
	m := make(map[string][]GateID)
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case Input, Const0, Const1:
			continue
		}
		name := topComponent(n.Modules[n.Gates[i].Module])
		m[name] = append(m[name], GateID(i))
	}
	return m
}

func topComponent(path string) string {
	if path == "" {
		return "glue"
	}
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return path
}

// Validate performs structural checks: input pins in range, correct pin
// counts, outputs referencing existing gates, and acyclic combinational
// logic. It returns the first problem found.
func (n *Netlist) Validate() error {
	for i := range n.Gates {
		g := &n.Gates[i]
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			in := g.In[p]
			if in == None {
				return fmt.Errorf("gate %d (%s): input pin %d unconnected", i, g.Kind, p)
			}
			if in < 0 || int(in) >= len(n.Gates) {
				return fmt.Errorf("gate %d (%s): input pin %d out of range (%d)", i, g.Kind, p, in)
			}
		}
		for p := ni; p < 3; p++ {
			if g.In[p] != None {
				return fmt.Errorf("gate %d (%s): unused pin %d connected to %d", i, g.Kind, p, g.In[p])
			}
		}
		if int(g.Module) >= len(n.Modules) {
			return fmt.Errorf("gate %d: module %d out of range", i, g.Module)
		}
	}
	for _, o := range n.Outputs {
		if o.Gate < 0 || int(o.Gate) >= len(n.Gates) {
			return fmt.Errorf("output %q references gate %d out of range", o.Name, o.Gate)
		}
	}
	if _, _, err := n.Levels(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the netlist (derived caches not copied).
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Gates:   append([]Gate(nil), n.Gates...),
		Modules: append([]string(nil), n.Modules...),
		Inputs:  append([]GateID(nil), n.Inputs...),
		Outputs: append([]Port(nil), n.Outputs...),
	}
	return c
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Gates int // real cells
	Dffs  int
	Comb  int
	Depth int32 // max combinational level
}

// Stats computes summary statistics.
func (n *Netlist) Stats() Stats {
	var s Stats
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case Input, Const0, Const1:
		case Dff:
			s.Dffs++
			s.Gates++
		default:
			s.Comb++
			s.Gates++
		}
	}
	if _, d, err := n.Levels(); err == nil {
		s.Depth = d
	}
	return s
}
