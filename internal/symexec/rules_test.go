package symexec

import (
	"context"
	"reflect"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// TestFetchOutsideROMDoesNotPanic is the regression for a program that
// branches into RAM: the halt check at fetch must test that the PC lies
// in ROM before it indexes the ROM image.
func TestFetchOutsideROMDoesNotPanic(t *testing.T) {
	p, err := asm.Assemble(`
        .org 0xE000
start:  mov #0x3FFF, &0x0800
        br #0x0800
        .org 0xFFFE
        .word start
`)
	if err != nil {
		t.Fatal(err)
	}
	// The run spins on the self-jump copied into RAM, which is not the
	// ROM halt convention, so the cycle budget ends it.
	_, _, err = analyzeProg(context.Background(), p, Options{MaxCycles: 2000})
	if err == nil {
		t.Fatal("a program spinning in RAM terminated the analysis")
	}
}

// TestImageBelowROMIsAnError is the regression for a program assembled
// below ROM: loading its image must fail the analysis with an error
// instead of indexing the ROM with a wrapped address.
func TestImageBelowROMIsAnError(t *testing.T) {
	p, err := asm.Assemble(`
        .org 0x0200
start:  jmp start
        .org 0xFFFE
        .word start
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := analyzeProg(context.Background(), p, Options{}); err == nil {
		t.Fatal("a program image below ROM was analyzed")
	}
}

// result builds a synthetic analysis: toggled gates are marked 'T',
// untoggled ones carry their constant '0' or '1'.
func result(gates string) *Result {
	r := &Result{Toggled: make([]bool, len(gates)), ConstVal: make([]logic.V, len(gates))}
	for g, c := range gates {
		switch c {
		case 'T':
			r.Toggled[g] = true
			r.ConstVal[g] = logic.X
		case '0':
			r.ConstVal[g] = logic.Zero
		case '1':
			r.ConstVal[g] = logic.One
		}
	}
	return r
}

// TestMergeUnionRule covers the Section 3.5 union rule gate by gate,
// including the constant-conflict branch no pair of catalog programs
// reaches: a gate untoggled in both programs at different constants is
// kept.
func TestMergeUnionRule(t *testing.T) {
	a := result("TT0011")
	b := result("T0T001")
	a.Paths, a.Cycles, a.Merges = 1, 10, 2
	b.Paths, b.Cycles, b.Merges = 3, 20, 4
	a.Merge(b)
	want := []bool{
		true,  // toggled in both
		true,  // toggled in a only
		true,  // toggled in b only
		false, // 0 in both
		true,  // 1 in a, 0 in b: constant conflict
		false, // 1 in both
	}
	if !reflect.DeepEqual(a.Toggled, want) {
		t.Errorf("Toggled = %v, want %v", a.Toggled, want)
	}
	if a.ConstVal[3] != logic.Zero || a.ConstVal[5] != logic.One {
		t.Errorf("kept constants changed: %v", a.ConstVal)
	}
	if a.Paths != 4 || a.Cycles != 30 || a.Merges != 6 {
		t.Errorf("statistics not summed: paths %d cycles %d merges %d", a.Paths, a.Cycles, a.Merges)
	}
}

// TestMissingUpdateSupport covers the Section 3.5 update test: an update
// is supported iff every gate it toggles is kept. An update that holds a
// removed gate at a different constant is still supported: the gate is
// untoggled for it too.
func TestMissingUpdateSupport(t *testing.T) {
	design := result("T01T")
	cases := []struct {
		update string
		want   []netlist.GateID
	}{
		{"T01T", nil},
		{"0000", nil},
		{"T10T", nil},
		{"TT1T", []netlist.GateID{1}},
		{"TTTT", []netlist.GateID{1, 2}},
	}
	for _, c := range cases {
		if got := design.Missing(result(c.update)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("update %s: missing %v, want %v", c.update, got, c.want)
		}
	}
}
