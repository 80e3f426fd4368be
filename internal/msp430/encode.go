package msp430

import "fmt"

// srcField computes the As/reg encoding and optional extension word for a
// source-position operand (format I src and format II single operand).
func srcField(o Operand) (as, reg uint8, ext uint16, hasExt bool, err error) {
	switch o.Mode {
	case ModeReg:
		// Reading r3 yields constant 0 (constant generator); the
		// encoding is legal and used by NOP (mov r3, r3).
		return 0, o.Reg, 0, false, nil
	case ModeIndexed, ModeSymbolic:
		return 1, o.Reg, o.Index, true, nil
	case ModeAbsolute:
		return 1, SR, o.Index, true, nil
	case ModeIndirect:
		if o.Reg == SR || o.Reg == CG {
			return 0, 0, 0, false, fmt.Errorf("@r%d is a constant-generator encoding", o.Reg)
		}
		return 2, o.Reg, 0, false, nil
	case ModeIndirectInc:
		if o.Reg == SR || o.Reg == CG {
			return 0, 0, 0, false, fmt.Errorf("@r%d+ is a constant-generator encoding", o.Reg)
		}
		return 3, o.Reg, 0, false, nil
	case ModeImmediate:
		if o.NoCG {
			return 3, PC, o.Index, true, nil
		}
		switch o.Index {
		case 0:
			return 0, CG, 0, false, nil
		case 1:
			return 1, CG, 0, false, nil
		case 2:
			return 2, CG, 0, false, nil
		case 0xFFFF:
			return 3, CG, 0, false, nil
		case 4:
			return 2, SR, 0, false, nil
		case 8:
			return 3, SR, 0, false, nil
		default:
			return 3, PC, o.Index, true, nil
		}
	}
	return 0, 0, 0, false, fmt.Errorf("unsupported source mode %v", o.Mode)
}

// dstField computes the Ad/reg encoding and optional extension word for a
// format I destination operand.
func dstField(o Operand) (ad, reg uint8, ext uint16, hasExt bool, err error) {
	switch o.Mode {
	case ModeReg:
		return 0, o.Reg, 0, false, nil
	case ModeIndexed, ModeSymbolic:
		return 1, o.Reg, o.Index, true, nil
	case ModeAbsolute:
		return 1, SR, o.Index, true, nil
	}
	return 0, 0, 0, false, fmt.Errorf("unsupported destination mode %v", o.Mode)
}

// Encode returns the 1-3 word binary encoding of in.
func Encode(in Inst) ([]uint16, error) {
	bw := uint16(0)
	if in.Byte {
		bw = 1 << 6
	}
	switch {
	case in.Op.IsJump():
		if in.Offset < -512 || in.Offset > 511 {
			return nil, fmt.Errorf("jump offset %d out of range", in.Offset)
		}
		cond := uint16(in.Op-JNE) & 7
		return []uint16{0x2000 | cond<<10 | uint16(in.Offset)&0x3FF}, nil

	case in.Op.IsFormatII():
		if in.Op == RETI {
			return []uint16{0x1300}, nil
		}
		if in.Byte && (in.Op == SWPB || in.Op == SXT || in.Op == CALL) {
			return nil, fmt.Errorf("%v has no byte form", in.Op)
		}
		as, reg, ext, hasExt, err := srcField(in.Src)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", in.Op, err)
		}
		w := 0x1000 | uint16(in.Op-RRC)<<7 | bw | uint16(as)<<4 | uint16(reg)
		if hasExt {
			return []uint16{w, ext}, nil
		}
		return []uint16{w}, nil

	case in.Op.IsFormatI():
		as, sreg, sext, hasSExt, err := srcField(in.Src)
		if err != nil {
			return nil, fmt.Errorf("%v src: %w", in.Op, err)
		}
		ad, dreg, dext, hasDExt, err := dstField(in.Dst)
		if err != nil {
			return nil, fmt.Errorf("%v dst: %w", in.Op, err)
		}
		w := uint16(in.Op)<<12 | uint16(sreg)<<8 | uint16(ad)<<7 | bw | uint16(as)<<4 | uint16(dreg)
		words := []uint16{w}
		if hasSExt {
			words = append(words, sext)
		}
		if hasDExt {
			words = append(words, dext)
		}
		return words, nil
	}
	return nil, fmt.Errorf("unknown op %v", in.Op)
}

// decodeSrc interprets an As/reg pair, consuming an extension word via
// next() when needed.
func decodeSrc(as, reg uint8, next func() uint16) Operand {
	switch reg {
	case CG:
		return Imm([]uint16{0, 1, 2, 0xFFFF}[as])
	case SR:
		switch as {
		case 1:
			return Abs(next())
		case 2:
			return Imm(4)
		case 3:
			return Imm(8)
		}
	case PC:
		if as == 3 {
			return Imm(next())
		}
	}
	switch as {
	case 0:
		return RegOp(reg)
	case 1:
		return Idx(next(), reg)
	case 2:
		return Ind(reg)
	default:
		return IndInc(reg)
	}
}

// Decode decodes the instruction whose first word is fetch(0); extension
// words are read from fetch(1), fetch(2). It returns the instruction and
// the number of words consumed.
func Decode(fetch func(i int) uint16) (Inst, int, error) {
	w0 := fetch(0)
	n := 1
	next := func() uint16 {
		w := fetch(n)
		n++
		return w
	}
	switch {
	case w0&0xE000 == 0x2000: // jump
		off := int16(w0 & 0x3FF)
		if off&0x200 != 0 {
			off |= ^int16(0x3FF)
		}
		return Inst{Op: JNE + Op(w0>>10&7), Offset: off}, 1, nil

	case w0&0xF000 == 0x1000: // format II
		opc := w0 >> 7 & 7
		if opc == 7 {
			return Inst{}, 1, fmt.Errorf("illegal format II opcode in %#04x", w0)
		}
		op := RRC + Op(opc)
		if op == RETI {
			return Inst{Op: RETI}, 1, nil
		}
		in := Inst{Op: op, Byte: w0&0x40 != 0}
		in.Src = decodeSrc(uint8(w0>>4&3), uint8(w0&0xF), next)
		return in, n, nil

	case w0 >= 0x4000: // format I
		in := Inst{Op: Op(w0 >> 12), Byte: w0&0x40 != 0}
		in.Src = decodeSrc(uint8(w0>>4&3), uint8(w0>>8&0xF), next)
		ad := w0 >> 7 & 1
		dreg := uint8(w0 & 0xF)
		if ad == 0 {
			in.Dst = RegOp(dreg)
		} else if dreg == SR {
			in.Dst = Abs(next())
		} else {
			in.Dst = Idx(next(), dreg)
		}
		return in, n, nil
	}
	return Inst{}, 1, fmt.Errorf("illegal opcode word %#04x", w0)
}
