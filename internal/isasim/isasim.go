// Package isasim is a functional, instruction-level MSP430 simulator.
// It is the golden reference model: the gate-level core of internal/cpu
// is co-simulated against it instruction by instruction, and the
// verification and mutation infrastructure run on it for speed.
//
// Architectural semantics (operand order, flag rules, peripheral
// behavior, interrupt entry) are defined here and implemented
// identically, in gates, by internal/cpu.
package isasim

import (
	"fmt"

	"bespoke/internal/msp430"
)

// Machine is one MSP430 system instance: CPU, 64 KiB address space and
// the modeled peripherals.
type Machine struct {
	Regs [16]uint16
	// Mem backs RAM and ROM. Peripheral registers live outside it.
	Mem [65536]byte

	// Peripherals.
	P1In, P1Out, P1Dir uint16
	IE, IFG            uint16
	WDTCtl             uint16
	WDTCount           uint32
	BCSCtl             uint16
	MpyOp1, MpyOp2     uint16
	MpyMode            MpyMode
	ResLo, ResHi       uint16
	SumExt             uint16
	DbgCtl, DbgBrk     uint16
	DbgHits            uint16
	DbgSteps           uint16
	DbgScratch         [4]uint16

	// Out is the observable output stream: every value written to
	// OUTPORT in order.
	Out []uint16

	irqLine [msp430.NumIRQVec]bool

	// Halted is set when the program reaches a jmp-to-self with
	// interrupts disabled (the testbench termination convention).
	Halted bool
	// Insts counts executed instructions; Cycles estimates machine
	// cycles using the gate-level core's state sequence lengths.
	Insts  uint64
	Cycles uint64
}

// MpyMode selects the hardware multiplier operation.
type MpyMode uint8

// Multiplier modes, per the MSP430 hardware multiplier register map.
const (
	MpyUnsigned MpyMode = iota
	MpySigned
	MpyAccumulate
)

// New returns a machine with the image loaded into ROM and the CPU at
// the reset vector.
func New(image []byte, loadAddr uint16) *Machine {
	m := &Machine{}
	copy(m.Mem[loadAddr:], image)
	m.Reset()
	return m
}

// Reset re-enters the power-on state (ROM contents preserved).
func (m *Machine) Reset() {
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	for a := int(msp430.RAMStart); a <= int(msp430.RAMEnd); a++ {
		m.Mem[a] = 0
	}
	m.P1In, m.P1Out, m.P1Dir = 0, 0, 0
	m.IE, m.IFG = 0, 0
	m.WDTCtl, m.WDTCount, m.BCSCtl = 0, 0, 0
	m.MpyOp1, m.MpyOp2, m.MpyMode = 0, 0, MpyUnsigned
	m.ResLo, m.ResHi, m.SumExt = 0, 0, 0
	m.DbgCtl, m.DbgBrk, m.DbgHits, m.DbgSteps = 0, 0, 0, 0
	m.DbgScratch = [4]uint16{}
	m.Out = nil
	m.Halted = false
	m.Insts, m.Cycles = 0, 0
	m.Regs[msp430.PC] = m.readWordRaw(msp430.ResetVec)
}

// SetIRQ drives external interrupt line i; a rising edge latches the
// corresponding IFG bit.
func (m *Machine) SetIRQ(i int, level bool) {
	if level && !m.irqLine[i] {
		m.IFG |= 1 << uint(i)
	}
	m.irqLine[i] = level
}

// SetP1In drives the P1 input port pins.
func (m *Machine) SetP1In(v uint16) { m.P1In = v }

func (m *Machine) readWordRaw(addr uint16) uint16 {
	addr &^= 1
	return uint16(m.Mem[addr]) | uint16(m.Mem[addr+1])<<8
}

func (m *Machine) writeWordRaw(addr, v uint16) {
	addr &^= 1
	m.Mem[addr] = byte(v)
	m.Mem[addr+1] = byte(v >> 8)
}

// perRead returns the value of a peripheral/SFR word register.
func (m *Machine) perRead(addr uint16) uint16 {
	switch addr &^ 1 {
	case msp430.IE1:
		return m.IE
	case msp430.IFG:
		return m.IFG
	case msp430.P1IN:
		return m.P1In
	case msp430.P1OUT:
		return m.P1Out
	case msp430.P1DIR:
		return m.P1Dir
	case msp430.WDTCTL:
		return m.WDTCtl
	case msp430.BCSCTL:
		return m.BCSCtl
	case msp430.MPY:
		return m.MpyOp1
	case msp430.MPYS:
		return m.MpyOp1
	case msp430.MAC:
		return m.MpyOp1
	case msp430.OP2:
		return m.MpyOp2
	case msp430.RESLO:
		return m.ResLo
	case msp430.RESHI:
		return m.ResHi
	case msp430.SUMEXT:
		return m.SumExt
	case msp430.DBGCTL:
		return m.DbgCtl
	case msp430.DBGDATA:
		return m.DbgBrk
	case msp430.DBGCTL + 4:
		return m.DbgHits
	case msp430.DBGCTL + 6:
		return m.DbgSteps
	case msp430.DBGCTL + 8, msp430.DBGCTL + 10, msp430.DBGCTL + 12, msp430.DBGCTL + 14:
		return m.DbgScratch[(addr&^1-msp430.DBGCTL-8)/2]
	}
	return 0
}

// perWrite stores to a peripheral register with byte-lane enables.
func (m *Machine) perWrite(addr, v uint16, lo, hi bool) {
	merge := func(old uint16) uint16 {
		nv := old
		if lo {
			nv = nv&0xFF00 | v&0x00FF
		}
		if hi {
			nv = nv&0x00FF | v&0xFF00
		}
		return nv
	}
	switch addr &^ 1 {
	case msp430.IE1:
		m.IE = merge(m.IE)
	case msp430.IFG:
		m.IFG = merge(m.IFG)
	case msp430.P1OUT:
		m.P1Out = merge(m.P1Out)
	case msp430.P1DIR:
		m.P1Dir = merge(m.P1Dir)
	case msp430.WDTCTL:
		nv := merge(m.WDTCtl)
		// Writes must carry the 0x5A password in the high byte.
		if nv>>8 == 0x5A {
			m.WDTCtl = nv & 0x00FF
		}
	case msp430.BCSCTL:
		m.BCSCtl = merge(m.BCSCtl)
	case msp430.MPY:
		m.MpyOp1 = merge(m.MpyOp1)
		m.MpyMode = MpyUnsigned
	case msp430.MPYS:
		m.MpyOp1 = merge(m.MpyOp1)
		m.MpyMode = MpySigned
	case msp430.MAC:
		m.MpyOp1 = merge(m.MpyOp1)
		m.MpyMode = MpyAccumulate
	case msp430.OP2:
		m.MpyOp2 = merge(m.MpyOp2)
		m.multiply()
	case msp430.RESLO:
		m.ResLo = merge(m.ResLo)
	case msp430.RESHI:
		m.ResHi = merge(m.ResHi)
	case msp430.OUTPORT:
		m.Out = append(m.Out, merge(0))
	case msp430.DBGCTL:
		m.DbgCtl = merge(m.DbgCtl)
	case msp430.DBGDATA:
		m.DbgBrk = merge(m.DbgBrk)
	case msp430.DBGCTL + 8, msp430.DBGCTL + 10, msp430.DBGCTL + 12, msp430.DBGCTL + 14:
		i := (addr&^1 - msp430.DBGCTL - 8) / 2
		m.DbgScratch[i] = merge(m.DbgScratch[i])
	}
}

// multiply executes the hardware multiplier on OP2 write, mirroring the
// MSP430 register semantics.
func (m *Machine) multiply() {
	switch m.MpyMode {
	case MpyUnsigned:
		p := uint32(m.MpyOp1) * uint32(m.MpyOp2)
		m.ResLo, m.ResHi = uint16(p), uint16(p>>16)
		m.SumExt = 0
	case MpySigned:
		p := int32(int16(m.MpyOp1)) * int32(int16(m.MpyOp2))
		m.ResLo, m.ResHi = uint16(p), uint16(uint32(p)>>16)
		if p < 0 {
			m.SumExt = 0xFFFF
		} else {
			m.SumExt = 0
		}
	case MpyAccumulate:
		p := uint32(m.MpyOp1) * uint32(m.MpyOp2)
		old := uint32(m.ResHi)<<16 | uint32(m.ResLo)
		sum := uint64(old) + uint64(p)
		m.ResLo, m.ResHi = uint16(sum), uint16(sum>>16)
		if sum > 0xFFFFFFFF {
			m.SumExt = 1
		} else {
			m.SumExt = 0
		}
	}
}

// ReadWord performs a data-space word read with peripheral routing.
func (m *Machine) ReadWord(addr uint16) uint16 {
	addr &^= 1
	if addr <= msp430.PerEnd {
		return m.perRead(addr)
	}
	return m.readWordRaw(addr)
}

// LoadByte performs a data-space byte read.
func (m *Machine) LoadByte(addr uint16) uint8 {
	w := m.ReadWord(addr)
	if addr&1 == 1 {
		return uint8(w >> 8)
	}
	return uint8(w)
}

// WriteWord performs a data-space word write (ROM writes are ignored,
// like a mask ROM).
func (m *Machine) WriteWord(addr, v uint16) {
	addr &^= 1
	switch {
	case addr <= msp430.PerEnd:
		m.perWrite(addr, v, true, true)
	case msp430.InRAM(addr):
		m.writeWordRaw(addr, v)
	}
}

// StoreByte performs a data-space byte write.
func (m *Machine) StoreByte(addr uint16, v uint8) {
	w := addr &^ 1
	var word uint16
	lo := addr&1 == 0
	if lo {
		word = uint16(v)
	} else {
		word = uint16(v) << 8
	}
	switch {
	case w <= msp430.PerEnd:
		m.perWrite(w, word, lo, !lo)
	case msp430.InRAM(w):
		if lo {
			m.Mem[w] = v
		} else {
			m.Mem[w+1] = v
		}
	}
}

func (m *Machine) flags() (c, z, n, v bool) {
	sr := m.Regs[msp430.SR]
	return sr&msp430.FlagC != 0, sr&msp430.FlagZ != 0, sr&msp430.FlagN != 0, sr&msp430.FlagV != 0
}

func (m *Machine) setFlags(c, z, n, v bool) {
	sr := m.Regs[msp430.SR] &^ (msp430.FlagC | msp430.FlagZ | msp430.FlagN | msp430.FlagV)
	if c {
		sr |= msp430.FlagC
	}
	if z {
		sr |= msp430.FlagZ
	}
	if n {
		sr |= msp430.FlagN
	}
	if v {
		sr |= msp430.FlagV
	}
	m.Regs[msp430.SR] = sr
}

// Err types surfaced by Step.
var (
	// ErrHalted indicates the machine already reached the termination
	// convention (self-jump with GIE clear and nothing pending).
	ErrHalted = fmt.Errorf("machine halted")
)

// Fetch decodes the instruction at the current PC without executing it.
func (m *Machine) Fetch() (msp430.Inst, int, error) {
	pc := m.Regs[msp430.PC]
	return msp430.Decode(func(i int) uint16 { return m.readWordRaw(pc + uint16(2*i)) })
}

// pending returns the highest-priority enabled pending interrupt, or -1.
func (m *Machine) pending() int {
	if m.Regs[msp430.SR]&msp430.FlagGIE == 0 {
		return -1
	}
	active := m.IE & m.IFG
	for i := msp430.NumIRQVec - 1; i >= 0; i-- {
		if active>>uint(i)&1 == 1 {
			return i
		}
	}
	return -1
}

// Step executes one instruction (or takes one interrupt). It returns
// ErrHalted once the program has terminated.
func (m *Machine) Step() error {
	if m.Halted {
		return ErrHalted
	}
	if irq := m.pending(); irq >= 0 {
		m.enterIRQ(irq)
		return nil
	}
	pcBefore := m.Regs[msp430.PC]
	in, nWords, err := m.Fetch()
	if err != nil {
		return fmt.Errorf("at pc=%#04x: %w", pcBefore, err)
	}
	m.debugHooks(pcBefore)
	// PC points past the whole instruction before operands resolve.
	// The assembler never emits PC-relative operands (labels lower to
	// absolute mode), so this convention is unobservable to programs.
	m.Regs[msp430.PC] += uint16(2 * nWords)
	if err := m.exec(in); err != nil {
		return fmt.Errorf("at pc=%#04x (%v): %w", pcBefore, in, err)
	}
	m.Insts++
	m.Cycles += uint64(cycleEstimate(in))
	m.tickPeripherals(cycleEstimate(in))
	// Termination: unconditional self-jump with no enabled interrupt
	// that could ever fire.
	if in.Op == msp430.JMP && in.Offset == -1 && m.pending() < 0 {
		if m.Regs[msp430.SR]&msp430.FlagGIE == 0 || m.IE == 0 {
			m.Halted = true
		}
	}
	return nil
}

// debugHooks updates the debug unit's PC-match and step counters.
func (m *Machine) debugHooks(pc uint16) {
	if m.DbgCtl&1 == 0 {
		return
	}
	m.DbgSteps++
	if m.DbgCtl&2 != 0 && pc == m.DbgBrk {
		m.DbgHits++
	}
}

// tickPeripherals advances free-running peripheral counters.
func (m *Machine) tickPeripherals(cycles int) {
	if m.WDTCtl&0x80 == 0 { // WDTHOLD clear: watchdog counts
		m.WDTCount += uint32(cycles)
	}
}

// enterIRQ pushes PC and SR, clears SR (disabling GIE) and vectors.
func (m *Machine) enterIRQ(i int) {
	m.push(m.Regs[msp430.PC])
	m.push(m.Regs[msp430.SR])
	m.Regs[msp430.SR] = 0
	m.IFG &^= 1 << uint(i)
	m.Regs[msp430.PC] = m.readWordRaw(msp430.IVTStart + uint16(2*i))
	// The gate-level core enters interrupts in four cycles: the fetch
	// cycle that decides to take, then push PC, push SR, vector fetch.
	m.Cycles += 4
	m.tickPeripherals(4)
}

func (m *Machine) push(v uint16) {
	m.Regs[msp430.SP] -= 2
	m.WriteWord(m.Regs[msp430.SP], v)
}

func (m *Machine) pop() uint16 {
	v := m.ReadWord(m.Regs[msp430.SP])
	m.Regs[msp430.SP] += 2
	return v
}

// readOperand resolves a source operand, applying autoincrement.
// It returns the value (byte ops return the low 8 bits populated).
func (m *Machine) readOperand(o msp430.Operand, byteOp bool) uint16 {
	load := func(addr uint16) uint16 {
		if byteOp {
			return uint16(m.LoadByte(addr))
		}
		return m.ReadWord(addr)
	}
	switch o.Mode {
	case msp430.ModeReg:
		v := m.Regs[o.Reg]
		if byteOp {
			v &= 0xFF
		}
		return v
	case msp430.ModeImmediate:
		v := o.Index
		if byteOp {
			v &= 0xFF
		}
		return v
	case msp430.ModeIndexed, msp430.ModeSymbolic:
		return load(m.Regs[o.Reg] + o.Index)
	case msp430.ModeAbsolute:
		return load(o.Index)
	case msp430.ModeIndirect:
		return load(m.Regs[o.Reg])
	case msp430.ModeIndirectInc:
		addr := m.Regs[o.Reg]
		inc := uint16(2)
		if byteOp && o.Reg != msp430.PC && o.Reg != msp430.SP {
			inc = 1
		}
		m.Regs[o.Reg] += inc
		return load(addr)
	}
	panic("isasim: bad operand mode") // panic-ok: decode already rejected every other mode
}

// dstAddr resolves the address of a memory destination.
func (m *Machine) dstAddr(o msp430.Operand) uint16 {
	switch o.Mode {
	case msp430.ModeIndexed, msp430.ModeSymbolic:
		return m.Regs[o.Reg] + o.Index
	case msp430.ModeAbsolute:
		return o.Index
	}
	panic("isasim: dstAddr of register operand") // panic-ok: callers check the mode before asking for an address
}

// writeReg stores an ALU result into a register with byte semantics
// (byte writes clear the high byte). Writes to CG are discarded, and the
// status register only implements its 9 architectural bits.
func (m *Machine) writeReg(r uint8, v uint16, byteOp bool) {
	if r == msp430.CG {
		return
	}
	if byteOp {
		v &= 0xFF
	}
	if r == msp430.SR {
		v &= 0x01FF
	}
	m.Regs[r] = v
}

func (m *Machine) exec(in msp430.Inst) error {
	switch {
	case in.Op.IsJump():
		c, z, n, v := m.flags()
		take := false
		switch in.Op {
		case msp430.JNE:
			take = !z
		case msp430.JEQ:
			take = z
		case msp430.JNC:
			take = !c
		case msp430.JC:
			take = c
		case msp430.JN:
			take = n
		case msp430.JGE:
			take = n == v
		case msp430.JL:
			take = n != v
		case msp430.JMP:
			take = true
		}
		if take {
			m.Regs[msp430.PC] += uint16(2 * in.Offset)
		}
		return nil

	case in.Op.IsFormatII():
		return m.execFormatII(in)

	default:
		return m.execFormatI(in)
	}
}

func (m *Machine) execFormatI(in msp430.Inst) error {
	src := m.readOperand(in.Src, in.Byte)

	dstIsReg := in.Dst.Mode == msp430.ModeReg
	var daddr uint16
	var dst uint16
	if dstIsReg {
		dst = m.Regs[in.Dst.Reg]
		if in.Byte {
			dst &= 0xFF
		}
	} else {
		daddr = m.dstAddr(in.Dst)
		// MOV does not read the destination.
		if in.Op != msp430.MOV {
			if in.Byte {
				dst = uint16(m.LoadByte(daddr))
			} else {
				dst = m.ReadWord(daddr)
			}
		}
	}

	cIn, _, _, _ := m.flags()
	res, wr := m.alu(in.Op, src, dst, cIn, in.Byte)

	if wr {
		if dstIsReg {
			m.writeReg(in.Dst.Reg, res, in.Byte)
		} else if in.Byte {
			m.StoreByte(daddr, uint8(res))
		} else {
			m.WriteWord(daddr, res)
		}
	}
	return nil
}

// alu computes a format I operation, updates flags, and reports whether
// the result is written back.
func (m *Machine) alu(op msp430.Op, src, dst uint16, cIn, byteOp bool) (res uint16, write bool) {
	width := uint(16)
	if byteOp {
		width = 8
	}
	msb := uint16(1) << (width - 1)
	mask := uint16(1)<<width - 1
	if !byteOp {
		mask = 0xFFFF
	}

	addLike := func(a, b uint16, carry bool) uint16 {
		sum := uint32(a&mask) + uint32(b&mask)
		if carry {
			sum++
		}
		r := uint16(sum) & mask
		c := sum > uint32(mask)
		n := r&msb != 0
		z := r == 0
		v := (a&msb == b&msb) && (r&msb != a&msb)
		m.setFlags(c, z, n, v)
		return r
	}
	logicFlags := func(r uint16) uint16 {
		r &= mask
		m.setFlags(r != 0, r == 0, r&msb != 0, false)
		return r
	}

	switch op {
	case msp430.MOV:
		return src & mask, true
	case msp430.ADD:
		return addLike(dst, src, false), true
	case msp430.ADDC:
		return addLike(dst, src, cIn), true
	case msp430.SUB:
		return addLike(dst, ^src&mask, true), true
	case msp430.SUBC:
		return addLike(dst, ^src&mask, cIn), true
	case msp430.CMP:
		addLike(dst, ^src&mask, true)
		return 0, false
	case msp430.DADD:
		return m.dadd(src, dst, cIn, byteOp), true
	case msp430.BIT:
		logicFlags(src & dst)
		return 0, false
	case msp430.BIC:
		return (^src & dst) & mask, true
	case msp430.BIS:
		return (src | dst) & mask, true
	case msp430.XOR:
		r := (src ^ dst) & mask
		vf := src&msb != 0 && dst&msb != 0
		m.setFlags(r != 0, r == 0, r&msb != 0, vf)
		return r, true
	case msp430.AND:
		return logicFlags(src & dst), true
	}
	panic("isasim: alu on non-format-I op") // panic-ok: decode routes only format-I ops here
}

// dadd is the BCD add-with-carry, digit-serial like the hardware.
func (m *Machine) dadd(src, dst uint16, cIn, byteOp bool) uint16 {
	digits := 4
	if byteOp {
		digits = 2
	}
	carry := uint16(0)
	if cIn {
		carry = 1
	}
	var res uint16
	for d := 0; d < digits; d++ {
		sh := uint(4 * d)
		sum := src>>sh&0xF + dst>>sh&0xF + carry
		if sum >= 10 {
			sum -= 10
			carry = 1
		} else {
			carry = 0
		}
		res |= sum << sh
	}
	msb := uint16(0x8000)
	if byteOp {
		msb = 0x80
	}
	m.setFlags(carry == 1, res == 0, res&msb != 0, false)
	return res
}

func (m *Machine) execFormatII(in msp430.Inst) error {
	if in.Op == msp430.RETI {
		m.Regs[msp430.SR] = m.pop() & 0x01FF
		m.Regs[msp430.PC] = m.pop()
		return nil
	}

	byteOp := in.Byte
	width := uint(16)
	if byteOp {
		width = 8
	}
	msb := uint16(1) << (width - 1)
	mask := uint16(1)<<width - 1

	// PUSH and CALL only read; the others are read-modify-write on the
	// operand location.
	opnd := in.Src
	v := m.readOperand(opnd, byteOp)

	writeBack := func(r uint16) {
		switch opnd.Mode {
		case msp430.ModeReg:
			m.writeReg(opnd.Reg, r, byteOp)
		case msp430.ModeIndexed, msp430.ModeSymbolic, msp430.ModeAbsolute:
			addr := m.dstAddr(opnd)
			if byteOp {
				m.StoreByte(addr, uint8(r))
			} else {
				m.WriteWord(addr, r)
			}
		case msp430.ModeIndirect, msp430.ModeIndirectInc:
			// The operand address for @Rn+ was already consumed; the
			// write targets the pre-increment address.
			addr := m.Regs[opnd.Reg]
			if opnd.Mode == msp430.ModeIndirectInc {
				inc := uint16(2)
				if byteOp && opnd.Reg != msp430.PC && opnd.Reg != msp430.SP {
					inc = 1
				}
				addr -= inc
			}
			if byteOp {
				m.StoreByte(addr, uint8(r))
			} else {
				m.WriteWord(addr, r)
			}
		case msp430.ModeImmediate:
			// Result of RRA #N etc. is discarded (not meaningful).
		}
	}

	c, _, _, _ := m.flags()
	switch in.Op {
	case msp430.RRC:
		r := v >> 1
		if c {
			r |= msb
		}
		m.setFlags(v&1 != 0, r&mask == 0, r&msb != 0, false)
		writeBack(r & mask)
	case msp430.RRA:
		r := v>>1 | v&msb
		m.setFlags(v&1 != 0, r&mask == 0, r&msb != 0, false)
		writeBack(r & mask)
	case msp430.SWPB:
		writeBack(v>>8 | v<<8)
	case msp430.SXT:
		r := v & 0xFF
		if r&0x80 != 0 {
			r |= 0xFF00
		}
		m.setFlags(r != 0, r == 0, r&0x8000 != 0, false)
		writeBack(r)
	case msp430.PUSH:
		m.push(v)
	case msp430.CALL:
		m.push(m.Regs[msp430.PC])
		m.Regs[msp430.PC] = v
	default:
		return fmt.Errorf("unhandled format II op %v", in.Op)
	}
	return nil
}

// cycleEstimate gives the exact per-instruction cycle count of the
// multicycle gate-level core's state sequence; co-simulation asserts the
// two models agree.
func cycleEstimate(in msp430.Inst) int {
	srcCost := func(o msp430.Operand) int {
		switch o.Mode {
		case msp430.ModeReg:
			return 0
		case msp430.ModeImmediate:
			if o.NoCG {
				return 1
			}
			switch o.Index {
			case 0, 1, 2, 4, 8, 0xFFFF:
				return 0 // constant generator
			}
			return 1 // SRCEXT
		case msp430.ModeIndirect, msp430.ModeIndirectInc:
			return 1 // SRCRD
		default:
			return 2 // SRCEXT + SRCRD
		}
	}
	memOperand := func(o msp430.Operand) bool {
		switch o.Mode {
		case msp430.ModeIndexed, msp430.ModeSymbolic, msp430.ModeAbsolute,
			msp430.ModeIndirect, msp430.ModeIndirectInc:
			return true
		}
		return false
	}
	switch {
	case in.Op.IsJump():
		return 2 // FETCH + EXEC
	case in.Op == msp430.RETI:
		return 3 // FETCH + RETI1 + RETI2
	case in.Op == msp430.PUSH:
		return 2 + srcCost(in.Src) // FETCH + operand + PUSH1
	case in.Op == msp430.CALL:
		return 3 + srcCost(in.Src) // FETCH + operand + CALL1 + CALL2
	case in.Op.IsFormatII():
		c := 2 + srcCost(in.Src) // FETCH + operand + EXEC
		if memOperand(in.Src) {
			c++ // DSTWR write-back
		}
		return c
	default:
		c := 2 + srcCost(in.Src) // FETCH + src operand + EXEC
		if in.Dst.Mode != msp430.ModeReg {
			c++ // DSTEXT
			if in.Op != msp430.MOV {
				c++ // DSTRD (MOV does not read its destination)
			}
			if in.Op != msp430.CMP && in.Op != msp430.BIT {
				c++ // DSTWR
			}
		}
		return c
	}
}

// Run executes up to maxInsts instructions or until halt/error.
func (m *Machine) Run(maxInsts uint64) error {
	for i := uint64(0); i < maxInsts; i++ {
		if err := m.Step(); err != nil {
			if err == ErrHalted {
				return nil
			}
			return err
		}
		if m.Halted {
			return nil
		}
	}
	return fmt.Errorf("did not halt within %d instructions (pc=%#04x)", maxInsts, m.Regs[msp430.PC])
}

// SetRAMWord writes a RAM word directly (testbench inputs).
func (m *Machine) SetRAMWord(addr, v uint16) { m.writeWordRaw(addr, v) }

// RAMWord reads a RAM word directly (testbench result checking).
func (m *Machine) RAMWord(addr uint16) uint16 { return m.readWordRaw(addr) }
