package cpu

import (
	"fmt"

	"bespoke/internal/logic"
	"bespoke/internal/msp430"
	"bespoke/internal/sim"
)

// Harness drives a concrete gate-level simulation of the core: loading a
// program, stepping whole instructions, observing registers and the
// output stream. The verification and power-analysis flows are built on
// it.
type Harness struct {
	Core *Core
	Sim  *sim.Sim
	// Out collects OUTPORT writes, like isasim.Machine.Out.
	Out []uint16
	// Cycles counts clock cycles since the first instruction fetch.
	Cycles uint64
}

// NewHarnessOn loads the image into core's ROM and resets the machine up
// to the first instruction boundary. The core may be the baseline
// (Build) or a bespoke design; netlists are mutated by the bespoke flow,
// so each harness wants its own core.
func NewHarnessOn(core *Core, image []byte, loadAddr uint16) (*Harness, error) {
	if err := core.LoadProgram(image, loadAddr); err != nil {
		return nil, err
	}
	s, err := core.NewSim()
	if err != nil {
		return nil, err
	}
	h := &Harness{Core: core, Sim: s}
	s.Reset()
	for i := range core.IRQ {
		s.Drive(core.IRQ[i], logic.Zero)
	}
	s.DriveBus(core.P1In, logic.KnownWord(0))
	// One cycle of stRESET loads PC from the reset vector.
	h.stepCycle()
	if st := h.State(); st != stFETCH {
		return nil, fmt.Errorf("cpu: expected FETCH after reset, in state %d", st)
	}
	h.Cycles = 0
	return h, nil
}

// stepCycle advances one clock cycle, sampling the output port.
func (h *Harness) stepCycle() {
	h.Sim.Settle()
	if h.Sim.Val[h.Core.OutWr] == logic.One {
		w := h.Sim.ReadBus(h.Core.OutData)
		h.Out = append(h.Out, w.Val)
	}
	h.Sim.Edge()
	h.Cycles++
}

// StepCycle advances one clock cycle (public wrapper).
func (h *Harness) StepCycle() { h.stepCycle() }

// State returns the current FSM state; it panics on X (which would mean
// the concrete simulation lost determinism).
func (h *Harness) State() uint64 {
	h.Sim.Settle()
	w := h.Sim.ReadBus(h.Core.State)
	if !w.Known() {
		panic("cpu: FSM state is X in concrete simulation") // panic-ok: X state after concrete reset is a bug in the generated core
	}
	return uint64(w.Val)
}

// StepInstr runs until the next instruction boundary (a transition into
// FETCH). It returns the number of cycles consumed.
func (h *Harness) StepInstr() (int, error) {
	cycles := 0
	for {
		h.stepCycle()
		cycles++
		if cycles > 10000 {
			return cycles, fmt.Errorf("cpu: no instruction boundary within %d cycles (state %d)", cycles, h.State())
		}
		if h.State() == stFETCH {
			return cycles, nil
		}
	}
}

// Reg returns register r as a concrete value.
func (h *Harness) Reg(r int) (uint16, error) {
	h.Sim.Settle()
	w := h.Sim.ReadBus(h.Core.Regs[r])
	if !w.Known() {
		return 0, fmt.Errorf("cpu: r%d is partially unknown: %v", r, w)
	}
	return w.Val, nil
}

// SetP1In drives the P1 input port pins.
func (h *Harness) SetP1In(v uint16) {
	h.Sim.DriveBus(h.Core.P1In, logic.KnownWord(v))
}

// SetIRQ drives external interrupt line i.
func (h *Harness) SetIRQ(i int, level bool) {
	h.Sim.Drive(h.Core.IRQ[i], logic.FromBool(level))
}

// SetRAMWord writes a data-RAM word by byte address.
func (h *Harness) SetRAMWord(addr, v uint16) {
	h.Core.RAM.SetWord((addr-msp430.RAMStart)/2, logic.KnownWord(v))
}

// RAMWord reads a data-RAM word by byte address.
func (h *Harness) RAMWord(addr uint16) logic.Word {
	return h.Core.RAM.Word((addr - msp430.RAMStart) / 2)
}
