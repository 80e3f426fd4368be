package induct

import (
	"bespoke/internal/cpu"
	"bespoke/internal/equiv"
	"bespoke/internal/logic"
	"bespoke/internal/msp430"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

// DefaultSampleCycles is the length of each concrete sampling run used to
// pre-filter implication candidates.
const DefaultSampleCycles = 512

// NewCoreSpec builds the induction spec for a loaded base core: buses
// from the architectural registers (the FSM state and instruction
// register anchor implications), the exact program-image ROM read
// function, the RAM enable gating, candidate seeds from the dynamic
// analysis record, concrete randomized-run samples, and the MSP430
// "pc lies in ROM" hint. Nothing here is assumed — every output feeds the
// candidate pool of Prove.
func NewCoreSpec(c *cpu.Core, res *symexec.Result, sampleCycles int) (*Spec, error) {
	spec := &Spec{N: c.N}
	spec.ROM, spec.RAM = equiv.CoreMemSpecs(c)
	// The microarchitectural latches (cpu.Core.Micro) matter as much as
	// the architectural ones: a claim cone that reads, say, the
	// extension-word register is only inductive if something pins that
	// register, and the recorded domains for wide data latches (srcv,
	// res, ...) simply come back Exceeded and contribute nothing.
	for _, b := range c.Buses() {
		control := b.Name == "state" || b.Name == "ir"
		spec.Buses = append(spec.Buses, Bus{Name: b.Name, Bits: b.Bits, Control: control})
	}
	if res != nil {
		spec.Seeds = res.BusDomains
	}
	// Target hint: the PC only ever addresses the ROM region
	// (pc >= 0xE000, i.e. the top three bits are all set).
	if pcInROM, ok := pcROMCube(c); ok {
		spec.Extra = append(spec.Extra, pcInROM)
	}
	if sampleCycles > 0 {
		ss, err := sampleRuns(c, sampleCycles)
		if err != nil {
			return nil, err
		}
		spec.Samples = ss
	}
	return spec, nil
}

// pcROMCube builds the "pc in [ROMStart, 0xFFFF]" cube candidate when the
// ROM base is aligned so the range is a single cube.
func pcROMCube(c *cpu.Core) (equiv.Invariant, bool) {
	base := msp430.ROMStart
	span := uint32(1<<16) - uint32(base)
	if span&(span-1) != 0 { // not a power-of-two tail: skip the hint
		return equiv.Invariant{}, false
	}
	return equiv.Invariant{
		Name:  "r0#rom",
		Bits:  append([]netlist.GateID(nil), c.PC()...),
		Cubes: []logic.Word{{Val: base, Mask: uint16(span - 1)}},
	}, true
}

// sampleRuns executes a few concrete randomized runs of the core (random
// RAM image, random port inputs, occasional interrupts) and snapshots the
// flip-flop state of every settled cycle. The runs use a fixed-seed
// generator so sampling is reproducible.
func sampleRuns(c *cpu.Core, cycles int) (*SampleSet, error) {
	rng := xorshift(0x9E3779B97F4A7C15)
	const runs = 2
	ss := &SampleSet{}
	for run := 0; run < runs; run++ {
		cc := c.Clone()
		for i := 0; i < cc.RAM.Size(); i++ {
			cc.RAM.SetWord(uint16(i), logic.KnownWord(uint16(rng.next())))
		}
		s, err := cc.NewSim()
		if err != nil {
			return nil, err
		}
		if ss.Dffs == nil {
			ss.Dffs = append([]netlist.GateID(nil), s.Dffs()...)
		}
		s.Reset()
		for cyc := 0; cyc < cycles; cyc++ {
			r := rng.next()
			for i := range cc.IRQ {
				// Interrupts fire rarely so runs execute real code.
				s.Drive(cc.IRQ[i], logic.FromBool(r>>uint(16+i)&0x3F == 0x2A))
			}
			s.DriveBus(cc.P1In, logic.KnownWord(uint16(r)))
			s.Settle()
			ss.Vals = append(ss.Vals, s.DffSnapshot())
			s.Edge()
		}
	}
	return ss, nil
}
