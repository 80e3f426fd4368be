package msp430

import (
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, in Inst) Inst {
	t.Helper()
	words, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode(%v): %v", in, err)
	}
	got, n, err := Decode(func(i int) uint16 {
		if i >= len(words) {
			t.Fatalf("Decode(%v) read past encoding", in)
		}
		return words[i]
	})
	if err != nil {
		t.Fatalf("Decode(%v): %v", in, err)
	}
	if n != len(words) {
		t.Fatalf("Decode(%v) consumed %d words, encoded %d", in, n, len(words))
	}
	return got
}

func TestRoundTripFormatI(t *testing.T) {
	ops := []Op{MOV, ADD, ADDC, SUBC, SUB, CMP, DADD, BIT, BIC, BIS, XOR, AND}
	srcs := []Operand{
		RegOp(4), RegOp(15), Idx(10, 5), Abs(0x200), Ind(6), IndInc(7),
		Imm(0x1234), Imm(0), Imm(1), Imm(2), Imm(4), Imm(8), Imm(0xFFFF),
	}
	dsts := []Operand{RegOp(4), Idx(0xFFFE, 9), Abs(0x21C)}
	for _, op := range ops {
		for _, src := range srcs {
			for _, dst := range dsts {
				for _, b := range []bool{false, true} {
					in := Inst{Op: op, Byte: b, Src: src, Dst: dst}
					got := roundTrip(t, in)
					if got.Op != in.Op || got.Byte != in.Byte {
						t.Fatalf("round trip %v -> %v", in, got)
					}
					if !operandEq(got.Src, in.Src) || !operandEq(got.Dst, in.Dst) {
						t.Fatalf("round trip %v -> %v", in, got)
					}
				}
			}
		}
	}
}

// operandEq compares operands modulo the encode-level aliasing that is
// semantically invisible (NoCG flag).
func operandEq(a, b Operand) bool {
	a.NoCG, b.NoCG = false, false
	return a == b
}

func TestRoundTripFormatII(t *testing.T) {
	for _, op := range []Op{RRC, SWPB, RRA, SXT, PUSH, CALL} {
		for _, src := range []Operand{RegOp(4), Idx(2, 5), Abs(0x204), Ind(6), IndInc(7), Imm(0x4455)} {
			in := Inst{Op: op, Src: src}
			got := roundTrip(t, in)
			if got.Op != in.Op || !operandEq(got.Src, in.Src) {
				t.Fatalf("round trip %v -> %v", in, got)
			}
		}
	}
	if got := roundTrip(t, Inst{Op: RETI}); got.Op != RETI {
		t.Fatal("RETI round trip")
	}
}

func TestRoundTripJumps(t *testing.T) {
	for _, op := range []Op{JNE, JEQ, JNC, JC, JN, JGE, JL, JMP} {
		for _, off := range []int16{-512, -1, 0, 1, 100, 511} {
			in := Inst{Op: op, Offset: off}
			got := roundTrip(t, in)
			if got.Op != in.Op || got.Offset != in.Offset {
				t.Fatalf("round trip %v -> %v", in, got)
			}
		}
	}
}

func TestJumpOffsetRange(t *testing.T) {
	if _, err := Encode(Inst{Op: JMP, Offset: 512}); err == nil {
		t.Error("offset 512 accepted")
	}
	if _, err := Encode(Inst{Op: JMP, Offset: -513}); err == nil {
		t.Error("offset -513 accepted")
	}
}

func TestConstantGeneratorEncodings(t *testing.T) {
	// CG immediates must encode in one word.
	for _, v := range []uint16{0, 1, 2, 4, 8, 0xFFFF} {
		words, err := Encode(Inst{Op: MOV, Src: Imm(v), Dst: RegOp(4)})
		if err != nil {
			t.Fatal(err)
		}
		if len(words) != 1 {
			t.Errorf("imm %#x took %d words, want 1 (constant generator)", v, len(words))
		}
	}
	// Other immediates need an extension word.
	words, err := Encode(Inst{Op: MOV, Src: Imm(3), Dst: RegOp(4)})
	if err != nil || len(words) != 2 {
		t.Errorf("imm 3 took %d words, want 2", len(words))
	}
	// NoCG forces the long form.
	words, err = Encode(Inst{Op: MOV, Src: Operand{Mode: ModeImmediate, Index: 1, NoCG: true}, Dst: RegOp(4)})
	if err != nil || len(words) != 2 {
		t.Errorf("NoCG imm 1 took %d words, want 2", len(words))
	}
}

func TestDecodeArbitraryWordsNeverPanics(t *testing.T) {
	f := func(w0, w1, w2 uint16) bool {
		words := []uint16{w0, w1, w2}
		in, n, err := Decode(func(i int) uint16 { return words[i%3] })
		if err != nil {
			return n == 1
		}
		// Whatever decoded must re-encode to something decodable.
		_ = in.String()
		return n >= 1 && n <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIllegalEncodings(t *testing.T) {
	if _, _, err := Decode(func(int) uint16 { return 0x0000 }); err == nil {
		t.Error("opcode 0x0000 decoded")
	}
	// Format II opcode 7 is unassigned.
	if _, _, err := Decode(func(int) uint16 { return 0x1000 | 7<<7 }); err == nil {
		t.Error("format II opcode 7 decoded")
	}
}

func TestByteFormRestrictions(t *testing.T) {
	for _, op := range []Op{SWPB, SXT, CALL} {
		if _, err := Encode(Inst{Op: op, Byte: true, Src: RegOp(4)}); err == nil {
			t.Errorf("%v.b accepted", op)
		}
	}
}

func TestOpClassPredicates(t *testing.T) {
	if !MOV.IsFormatI() || MOV.IsFormatII() || MOV.IsJump() {
		t.Error("MOV class")
	}
	if !PUSH.IsFormatII() || PUSH.IsFormatI() {
		t.Error("PUSH class")
	}
	if !JMP.IsJump() || JMP.IsFormatI() {
		t.Error("JMP class")
	}
}

func TestInstString(t *testing.T) {
	in := Inst{Op: ADD, Byte: true, Src: Imm(5), Dst: RegOp(4)}
	if got := in.String(); got != "add.b #0x5, r4" {
		t.Errorf("String = %q", got)
	}
	j := Inst{Op: JNE, Offset: -3}
	if got := j.String(); got != "jne -3" {
		t.Errorf("String = %q", got)
	}
}

// TestLoadROMRange packs images at the edges of ROM and rejects any
// image with a byte outside it, leaving the ROM unchanged.
func TestLoadROMRange(t *testing.T) {
	rom := make([]uint16, ROMSize/2)
	if err := LoadROM(rom, []byte{0x34, 0x12, 0x78, 0x56, 0xAB}, ROMStart); err != nil {
		t.Fatal(err)
	}
	if rom[0] != 0x1234 || rom[1] != 0x5678 || rom[2] != 0x00AB {
		t.Errorf("packed words = %#04x, want 0x1234 0x5678 0x00ab", rom[:3])
	}
	if err := LoadROM(rom, []byte{0xFF, 0x3F}, 0xFFFE); err != nil || rom[len(rom)-1] != 0x3FFF {
		t.Errorf("last word: err %v, word %#04x", err, rom[len(rom)-1])
	}
	before := append([]uint16(nil), rom...)
	for _, c := range []struct {
		addr uint16
		n    int
	}{
		{0x0200, 2},                // below ROM
		{ROMStart - 2, 4},          // straddles the ROM start
		{0xFFFE, 3},                // runs past 0xFFFF
		{0x0200, 0x10000 - 0x0200}, // .org 0x0200 through the reset vector
	} {
		if err := LoadROM(rom, make([]byte, c.n), c.addr); err == nil {
			t.Errorf("%d-byte image at %#04x loaded", c.n, c.addr)
		}
	}
	for i := range rom {
		if rom[i] != before[i] {
			t.Fatalf("a rejected image changed word %d", i)
		}
	}
}
