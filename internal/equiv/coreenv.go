package equiv

import (
	"context"
	"fmt"

	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

// NewCoreEnv builds the proof environment for a loaded base core and its
// activity analysis: the claims come from the cut plan, the ROM spec from
// the core's program image (the same seeding symexec uses), and the bus
// domains from the analysis when it recorded them.
func NewCoreEnv(c *cpu.Core, res *symexec.Result) (*Env, error) {
	claims, err := cut.Plan(c.N, res.Toggled, res.ConstVal)
	if err != nil {
		return nil, err
	}
	rom, ram := CoreMemSpecs(c)
	return &Env{N: c.N, Claims: claims, ROM: rom, RAM: ram, Domains: res.BusDomains}, nil
}

// CoreMemSpecs builds the memory macro specs of a loaded core: the ROM
// read function over the core's program image and the RAM pin binding.
// The proof environment and the induction spec both encode them.
func CoreMemSpecs(c *cpu.Core) (*ROMSpec, *RAMSpec) {
	romAddr, romData, romEn := c.ROM.Pins()
	ramAddr, ramWData, ramData, ramEn, ramWLo, ramWHi := c.RAM.Pins()
	return &ROMSpec{Addr: romAddr, Data: romData, En: romEn, Words: c.ROM.Words()},
		&RAMSpec{Addr: ramAddr, WData: ramWData, Data: ramData, En: ramEn, WEnLo: ramWLo, WEnHi: ramWHi}
}

// Divergence is the outcome of replaying a counterexample on the real
// simulators: the same machine state and inputs settle to different
// values on the two designs.
type Divergence struct {
	Gate    netlist.GateID
	Base    logic.V // value on the base design
	Bespoke logic.V // value on the bespoke design
	Claimed logic.V
}

func (d *Divergence) String() string {
	return fmt.Sprintf("gate %d: base settles to %s, bespoke to %s (claimed constant %s)",
		d.Gate, d.Base, d.Bespoke, d.Claimed)
}

// Replay drives a counterexample into gate-level cosimulation: both cores
// are forced into the counterexample's flip-flop state, the RAM word it
// read is preloaded, the primary inputs are driven, and both designs
// settle. It returns the resulting per-design values of the refuted gate.
// This is the regression stimulus a *ProofError feeds back to the dynamic
// verification: a genuine refutation shows the base design settling away
// from the claimed constant while the bespoke design has the constant
// stitched in.
//
// The context is checked once up front; the replay itself is two settle
// passes and needs no polling.
func Replay(ctx context.Context, base, bespoke *cpu.Core, cex *Counterexample) (*Divergence, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cex == nil {
		return nil, fmt.Errorf("equiv: nil counterexample")
	}
	settle := func(c *cpu.Core) (logic.V, error) {
		s, err := c.NewSim()
		if err != nil {
			return logic.X, err
		}
		s.Reset()
		// Memory state first: the frame's RAM read must reproduce.
		if cex.RAMEn {
			c.RAM.SetWord(cex.RAMAddr, logic.KnownWord(cex.RAMData))
		}
		// Flip-flop state: every surviving flip-flop takes the
		// counterexample value (cut ones are constants already).
		dffs := s.Dffs()
		vals := make([]logic.V, len(dffs))
		for i, id := range dffs {
			v, ok := cex.Dffs[id]
			if !ok {
				return logic.X, fmt.Errorf("equiv: counterexample misses flip-flop %d", id)
			}
			vals[i] = v
		}
		s.RestoreDffs(vals)
		// Primary inputs (memory data nets are driven by the macros).
		blockOut := map[netlist.GateID]bool{}
		for _, b := range s.Blocks() {
			for _, o := range b.Outputs() {
				blockOut[o] = true
			}
		}
		for _, id := range c.N.Inputs {
			if blockOut[id] {
				continue
			}
			if v, ok := cex.Inputs[id]; ok {
				s.Drive(id, v)
			}
		}
		s.Settle()
		return s.Val[cex.Gate], nil
	}
	bv, err := settle(base)
	if err != nil {
		return nil, err
	}
	sv, err := settle(bespoke)
	if err != nil {
		return nil, err
	}
	return &Divergence{Gate: cex.Gate, Base: bv, Bespoke: sv, Claimed: cex.Claimed}, nil
}
