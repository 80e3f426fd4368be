// Package msp430 defines the MSP430 base instruction set: registers,
// opcodes, addressing modes, binary encodings and the memory map shared
// by the assembler, the ISA-level simulator and the gate-level core.
//
// The MSP430 is the paper's target: a silicon-proven, 16-bit, ultra-low-
// power microcontroller with 27 core instructions in three formats
// (double-operand, single-operand, and relative jumps), seven addressing
// modes, and two constant-generator registers.
package msp430

import "fmt"

// Register numbers. R0-R3 are special: PC, SP, SR/CG1, CG2.
const (
	PC uint8 = 0
	SP uint8 = 1
	SR uint8 = 2
	CG uint8 = 3
)

// Status register bits.
const (
	FlagC      uint16 = 1 << 0
	FlagZ      uint16 = 1 << 1
	FlagN      uint16 = 1 << 2
	FlagGIE    uint16 = 1 << 3
	FlagCPUOFF uint16 = 1 << 4
	FlagOSCOFF uint16 = 1 << 5
	FlagSCG0   uint16 = 1 << 6
	FlagSCG1   uint16 = 1 << 7
	FlagV      uint16 = 1 << 8
)

// Op is an instruction mnemonic.
type Op uint8

// Double-operand (format I) opcodes; the constant value is the encoding
// opcode field.
const (
	MOV  Op = 0x4
	ADD  Op = 0x5
	ADDC Op = 0x6
	SUBC Op = 0x7
	SUB  Op = 0x8
	CMP  Op = 0x9
	DADD Op = 0xA
	BIT  Op = 0xB
	BIC  Op = 0xC
	BIS  Op = 0xD
	XOR  Op = 0xE
	AND  Op = 0xF
)

// Single-operand (format II) opcodes, offset by 0x10 to stay distinct.
const (
	RRC Op = 0x10 + iota
	SWPB
	RRA
	SXT
	PUSH
	CALL
	RETI
)

// Jump opcodes, offset by 0x20; the low 3 bits are the condition code.
const (
	JNE Op = 0x20 + iota // JNZ
	JEQ                  // JZ
	JNC                  // JLO
	JC                   // JHS
	JN
	JGE
	JL
	JMP
)

// IsFormatI reports whether op is a double-operand instruction.
func (o Op) IsFormatI() bool { return o >= MOV && o <= AND }

// IsFormatII reports whether op is a single-operand instruction.
func (o Op) IsFormatII() bool { return o >= RRC && o <= RETI }

// IsJump reports whether op is a conditional or unconditional jump.
func (o Op) IsJump() bool { return o >= JNE && o <= JMP }

var opNames = map[Op]string{
	MOV: "mov", ADD: "add", ADDC: "addc", SUBC: "subc", SUB: "sub",
	CMP: "cmp", DADD: "dadd", BIT: "bit", BIC: "bic", BIS: "bis",
	XOR: "xor", AND: "and",
	RRC: "rrc", SWPB: "swpb", RRA: "rra", SXT: "sxt", PUSH: "push",
	CALL: "call", RETI: "reti",
	JNE: "jne", JEQ: "jeq", JNC: "jnc", JC: "jc", JN: "jn",
	JGE: "jge", JL: "jl", JMP: "jmp",
}

// String returns the lowercase mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%#x)", uint8(o))
}

// Mode is an operand addressing mode.
type Mode uint8

const (
	// ModeReg is register direct: Rn.
	ModeReg Mode = iota
	// ModeIndexed is indexed: X(Rn); one extension word.
	ModeIndexed
	// ModeIndirect is register indirect: @Rn.
	ModeIndirect
	// ModeIndirectInc is indirect autoincrement: @Rn+.
	ModeIndirectInc
	// ModeImmediate is #N (encoded @PC+ or via constant generators).
	ModeImmediate
	// ModeAbsolute is &ADDR (encoded X(SR) with SR read as zero).
	ModeAbsolute
	// ModeSymbolic is ADDR (PC-relative, encoded X(PC)).
	ModeSymbolic
)

var modeNames = [...]string{"Rn", "X(Rn)", "@Rn", "@Rn+", "#N", "&ADDR", "ADDR"}

// String describes the mode.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Operand is one decoded operand.
type Operand struct {
	Mode Mode
	Reg  uint8
	// Index is the extension-word value: the offset for ModeIndexed /
	// ModeSymbolic, the address for ModeAbsolute, the literal for
	// ModeImmediate.
	Index uint16
	// NoCG forces an immediate to use the @PC+ extension-word encoding
	// even when a constant generator could produce the value. The
	// assembler sets it for forward references so both passes emit the
	// same instruction size.
	NoCG bool
}

// RegOp returns a register-direct operand.
func RegOp(r uint8) Operand { return Operand{Mode: ModeReg, Reg: r} }

// Imm returns an immediate operand.
func Imm(v uint16) Operand { return Operand{Mode: ModeImmediate, Index: v} }

// Abs returns an absolute-address operand.
func Abs(addr uint16) Operand { return Operand{Mode: ModeAbsolute, Index: addr} }

// Idx returns an indexed operand X(Rn).
func Idx(x uint16, r uint8) Operand { return Operand{Mode: ModeIndexed, Reg: r, Index: x} }

// Ind returns @Rn.
func Ind(r uint8) Operand { return Operand{Mode: ModeIndirect, Reg: r} }

// IndInc returns @Rn+.
func IndInc(r uint8) Operand { return Operand{Mode: ModeIndirectInc, Reg: r} }

// Inst is one decoded instruction.
type Inst struct {
	Op     Op
	Byte   bool // .B suffix (byte operation)
	Src    Operand
	Dst    Operand
	Offset int16 // jump offset in words, PC-relative after increment
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	suffix := ""
	if in.Byte {
		suffix = ".b"
	}
	fmtOp := func(o Operand) string {
		switch o.Mode {
		case ModeReg:
			return fmt.Sprintf("r%d", o.Reg)
		case ModeIndexed:
			return fmt.Sprintf("%d(r%d)", int16(o.Index), o.Reg)
		case ModeIndirect:
			return fmt.Sprintf("@r%d", o.Reg)
		case ModeIndirectInc:
			return fmt.Sprintf("@r%d+", o.Reg)
		case ModeImmediate:
			return fmt.Sprintf("#%#x", o.Index)
		case ModeAbsolute:
			return fmt.Sprintf("&%#x", o.Index)
		case ModeSymbolic:
			return fmt.Sprintf("%#x", o.Index)
		}
		return "?"
	}
	switch {
	case in.Op.IsJump():
		return fmt.Sprintf("%s %+d", in.Op, in.Offset)
	case in.Op == RETI:
		return "reti"
	case in.Op.IsFormatII():
		return fmt.Sprintf("%s%s %s", in.Op, suffix, fmtOp(in.Src))
	default:
		return fmt.Sprintf("%s%s %s, %s", in.Op, suffix, fmtOp(in.Src), fmtOp(in.Dst))
	}
}

// Memory map of the modeled system. It mirrors a small MSP430F-class
// part: special function registers and peripherals low, RAM in the
// middle, program flash at the top with the interrupt vector table in
// the final 32 bytes.
// RAM sits at 0x0800 (rather than the 0x0200 of MSP430F parts) so the
// gate-level memory backbone decodes it with two address bits; nothing
// else depends on the placement.
const (
	SFRStart  uint16 = 0x0000
	PerStart  uint16 = 0x0010
	PerEnd    uint16 = 0x01FF
	RAMStart  uint16 = 0x0800
	RAMSize   uint16 = 0x0800 // 2 KiB
	RAMEnd    uint16 = RAMStart + RAMSize - 1
	ROMStart  uint16 = 0xE000
	ROMSize   uint16 = 0x2000 // 8 KiB
	IVTStart  uint16 = 0xFFF6
	ResetVec  uint16 = 0xFFFE
	NumIRQVec        = 4 // lines 0-2 external, 3 reserved
)

// Peripheral register addresses (word-aligned).
const (
	// GPIO port 1: input is driven by the environment, output is
	// observable. Modeled on P1IN/P1OUT/P1DIR.
	P1IN  uint16 = 0x0020
	P1OUT uint16 = 0x0022
	P1DIR uint16 = 0x0024
	// Interrupt enable/flag SFRs.
	IE1 uint16 = 0x0000
	IFG uint16 = 0x0002
	// Watchdog timer control (password-protected in real parts; the
	// model checks the 0x5A password in the high byte).
	WDTCTL uint16 = 0x0120
	// Clock module control (DCO/divider config).
	BCSCTL uint16 = 0x0056
	// Hardware multiplier, as in the MSP430 memory map.
	MPY    uint16 = 0x0130 // unsigned multiply operand 1
	MPYS   uint16 = 0x0132 // signed multiply operand 1
	MAC    uint16 = 0x0134 // multiply-accumulate operand 1
	OP2    uint16 = 0x0138 // operand 2: writing triggers the multiply
	RESLO  uint16 = 0x013A
	RESHI  uint16 = 0x013C
	SUMEXT uint16 = 0x013E
	// Debug interface (memory-mapped mailbox, modeled on the
	// openMSP430 serial debug unit's register file).
	DBGCTL  uint16 = 0x01B0
	DBGDATA uint16 = 0x01B2
	// Output console: words written here are the program's observable
	// result stream (testbench convention, like a UART TX register).
	OUTPORT uint16 = 0x0070
)

// InROM reports whether addr falls in program flash.
func InROM(addr uint16) bool { return addr >= ROMStart }

// InRAM reports whether addr falls in data RAM.
func InRAM(addr uint16) bool { return addr >= RAMStart && addr <= RAMEnd }

// LoadROM packs a program image loaded at loadAddr into rom, the ROM's
// words from ROMStart up: byte i lands at address loadAddr+i, two bytes
// per little-endian word, and an odd trailing byte replaces only the low
// byte of its word. An image reaching outside rom is an error and leaves
// rom unchanged.
func LoadROM(rom []uint16, image []byte, loadAddr uint16) error {
	off := int(loadAddr) - int(ROMStart) // byte offset into rom
	if off < 0 || off+len(image) > 2*len(rom) {
		return fmt.Errorf("msp430: %d-byte program image at %#04x does not fit ROM %#04x-%#04x",
			len(image), loadAddr, ROMStart, int(ROMStart)+2*len(rom)-1)
	}
	for i := 0; i+1 < len(image); i += 2 {
		rom[(off+i)/2] = uint16(image[i]) | uint16(image[i+1])<<8
	}
	if n := len(image); n%2 == 1 {
		w := &rom[(off+n-1)/2]
		*w = *w&0xFF00 | uint16(image[n-1])
	}
	return nil
}

// HaltWord encodes "jmp $" (offset -1), the testbench halt convention: a
// run ends when the CPU fetches it from ROM with no interrupt able to
// fire.
const HaltWord uint16 = 0x3FFF
