// Package asm is a two-pass MSP430 assembler. It turns the benchmark
// sources of internal/bench (and any user program) into ROM images for
// the ISA simulator, the gate-level core, and the symbolic analysis.
//
// Supported syntax (one statement per line, ';' comments):
//
//	label:  mov.b  #0x5A, &WDTCTL   ; instructions, byte suffix .b
//	        jne    loop             ; jumps to labels
//	        .org   0xE000           ; location counter
//	        .word  1, 2, tab+4      ; data words
//	        .byte  1, 2, 3          ; data bytes (padded to word)
//	        .space 16               ; reserve bytes (zeroed)
//	        .equ   NAME, expr       ; symbol definition
//
// Operands: #expr immediate, &expr absolute, expr(rN) indexed, @rN,
// @rN+, rN register, bare expr absolute (labels lower to absolute mode
// rather than PC-relative symbolic mode). Expressions are a number, a
// symbol, or symbol±number. Registers r0-r3 have aliases pc, sp, sr, cg.
// Peripheral addresses from package msp430 are predefined symbols.
//
// The usual MSP430 emulated instructions (ret, pop, br, clr, inc, dec,
// tst, rla, nop, eint, dint, ...) expand to their core encodings.
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bespoke/internal/msp430"
)

// Program is an assembled binary plus its metadata.
type Program struct {
	// Origin is the lowest address emitted.
	Origin uint16
	// Bytes is the raw little-endian image starting at Origin.
	Bytes []byte
	// Symbols maps labels and .equ names to values.
	Symbols map[string]uint16
	// LineOf maps each emitted instruction address to its 1-based
	// source line (for line coverage accounting).
	LineOf map[uint16]int
	// InstAddrs lists the addresses of all instructions in order.
	InstAddrs []uint16
	// Insts maps instruction addresses to their decoded form.
	Insts map[uint16]msp430.Inst
	// Source is the original assembly text.
	Source string
}

// Word reads an assembled word at addr; it returns 0 outside the image.
func (p *Program) Word(addr uint16) uint16 {
	i := int(addr) - int(p.Origin)
	if i < 0 || i+1 >= len(p.Bytes) {
		return 0
	}
	return uint16(p.Bytes[i]) | uint16(p.Bytes[i+1])<<8
}

var regAliases = map[string]uint8{
	"pc": 0, "sp": 1, "sr": 2, "cg": 3,
}

// builtinSymbols are predefined peripheral and memory-map names.
var builtinSymbols = map[string]uint16{
	"WDTCTL": msp430.WDTCTL, "BCSCTL": msp430.BCSCTL,
	"P1IN": msp430.P1IN, "P1OUT": msp430.P1OUT, "P1DIR": msp430.P1DIR,
	"IE1": msp430.IE1, "IFG": msp430.IFG,
	"MPY": msp430.MPY, "MPYS": msp430.MPYS, "MAC": msp430.MAC,
	"OP2": msp430.OP2, "RESLO": msp430.RESLO, "RESHI": msp430.RESHI,
	"SUMEXT": msp430.SUMEXT,
	"DBGCTL": msp430.DBGCTL, "DBGDATA": msp430.DBGDATA,
	"DBGHITS": msp430.DBGCTL + 4, "DBGSTEPS": msp430.DBGCTL + 6,
	"OUTPORT":  msp430.OUTPORT,
	"RAMSTART": msp430.RAMStart, "RAMEND": msp430.RAMEnd,
	"STACKTOP": msp430.RAMEnd + 1,
	"IVT":      msp430.IVTStart, "RESETVEC": msp430.ResetVec,
}

type stmt struct {
	label  string
	mnem   string // lowercase mnemonic or directive (with '.')
	args   []string
	line   int
	byteOp bool
}

// Assemble translates source into a Program.
func Assemble(source string) (*Program, error) {
	stmts, err := parse(source)
	if err != nil {
		return nil, err
	}
	a := &assembler{
		symbols: map[string]uint16{},
	}
	for k, v := range builtinSymbols {
		a.symbols[k] = v
	}
	// Pass 1: layout.
	if err := a.run(stmts, 1); err != nil {
		return nil, err
	}
	// Pass 2: emit.
	a.prog = &Program{
		Symbols: a.symbols,
		LineOf:  map[uint16]int{},
		Insts:   map[uint16]msp430.Inst{},
		Source:  source,
	}
	if err := a.run(stmts, 2); err != nil {
		return nil, err
	}
	sort.Slice(a.prog.InstAddrs, func(i, j int) bool { return a.prog.InstAddrs[i] < a.prog.InstAddrs[j] })
	return a.prog, nil
}

// MustAssemble is Assemble for known-good embedded sources.
func MustAssemble(source string) *Program {
	p, err := Assemble(source)
	if err != nil {
		panic(err)
	}
	return p
}

func parse(source string) ([]stmt, error) {
	var stmts []stmt
	for i, raw := range strings.Split(source, "\n") {
		line := raw
		if j := strings.IndexByte(line, ';'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var s stmt
		s.line = i + 1
		if j := strings.IndexByte(line, ':'); j >= 0 && isIdent(line[:j]) {
			s.label = line[:j]
			line = strings.TrimSpace(line[j+1:])
		}
		if line != "" {
			fields := strings.Fields(line)
			m := strings.ToLower(fields[0])
			if strings.HasSuffix(m, ".b") {
				s.byteOp = true
				m = m[:len(m)-2]
			} else if strings.HasSuffix(m, ".w") {
				m = m[:len(m)-2]
			}
			s.mnem = m
			rest := strings.TrimSpace(line[len(fields[0]):])
			if rest != "" {
				s.args = splitArgs(rest)
			}
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func splitArgs(s string) []string {
	var args []string
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	args = append(args, strings.TrimSpace(s[start:]))
	return args
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

type assembler struct {
	symbols map[string]uint16
	// seen tracks symbols defined at or before the current statement of
	// the current pass. Forward references are decided against it so
	// that both passes agree on whether an immediate needs an extension
	// word (stable instruction sizes).
	seen    map[string]bool
	pc      uint16
	pass    int
	prog    *Program
	minAddr int
	buf     [65536]byte
	used    [65536]bool
	anyEmit bool
}

func (a *assembler) errf(s stmt, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", s.line, fmt.Sprintf(format, args...))
}

func (a *assembler) run(stmts []stmt, pass int) error {
	a.pass = pass
	a.pc = msp430.ROMStart
	a.minAddr = 1 << 17
	a.anyEmit = false
	a.seen = map[string]bool{}
	for k := range builtinSymbols {
		a.seen[k] = true
	}
	for _, s := range stmts {
		if s.label != "" {
			if pass == 1 {
				if _, dup := a.symbols[s.label]; dup {
					return a.errf(s, "duplicate label %q", s.label)
				}
				a.symbols[s.label] = a.pc
			}
			a.seen[s.label] = true
		}
		if s.mnem == "" {
			continue
		}
		if err := a.stmt(s); err != nil {
			return err
		}
	}
	if pass == 2 {
		if !a.anyEmit {
			return fmt.Errorf("empty program")
		}
		a.prog.Origin = uint16(a.minAddr)
		hi := 0
		for i := a.minAddr; i < 65536; i++ {
			if a.used[i] {
				hi = i
			}
		}
		a.prog.Bytes = append([]byte(nil), a.buf[a.minAddr:hi+1]...)
	}
	return nil
}

func (a *assembler) emitWord(w uint16) {
	if a.pass == 2 {
		if int(a.pc) < a.minAddr {
			a.minAddr = int(a.pc)
		}
		a.buf[a.pc] = byte(w)
		a.buf[a.pc+1] = byte(w >> 8)
		a.used[a.pc] = true
		a.used[a.pc+1] = true
		a.anyEmit = true
	}
	a.pc += 2
}

func (a *assembler) emitByte(b byte) {
	if a.pass == 2 {
		if int(a.pc) < a.minAddr {
			a.minAddr = int(a.pc)
		}
		a.buf[a.pc] = b
		a.used[a.pc] = true
		a.anyEmit = true
	}
	a.pc++
}

// eval resolves an expression: number | symbol | symbol±number | $.
// forward reports whether the value was unknown in pass 1.
func (a *assembler) eval(s stmt, expr string) (val uint16, forward bool, err error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, false, a.errf(s, "empty expression")
	}
	if expr == "$" {
		return a.pc, false, nil
	}
	// split on last +/- not at position 0
	for i := len(expr) - 1; i > 0; i-- {
		if expr[i] == '+' || expr[i] == '-' {
			base, fw, err := a.eval(s, expr[:i])
			if err != nil {
				return 0, false, err
			}
			off, fw2, err := a.eval(s, expr[i+1:])
			if err != nil {
				return 0, false, err
			}
			if expr[i] == '+' {
				return base + off, fw || fw2, nil
			}
			return base - off, fw || fw2, nil
		}
	}
	if n, perr := parseNum(expr); perr == nil {
		return n, false, nil
	}
	if v, ok := a.symbols[expr]; ok {
		return v, !a.seen[expr], nil
	}
	if a.pass == 1 {
		return 0, true, nil // forward reference
	}
	return 0, false, a.errf(s, "undefined symbol %q", expr)
}

func parseNum(s string) (uint16, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(strings.ToLower(s), "+"), 0, 17)
	if err != nil {
		return 0, err
	}
	if neg {
		return uint16(-int32(v)), nil
	}
	return uint16(v), nil
}
