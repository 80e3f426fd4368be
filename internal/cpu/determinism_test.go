package cpu

import (
	"bytes"
	"slices"
	"testing"
)

// TestBuildDeterministic guards the reproducibility contract of the
// builder DSL: constructing the full CPU twice must yield identical
// netlists (every gate's kind, pins, module, reset and name, and the
// module, input and output tables), so layout, symbolic analysis and the
// Verilog hand-off are stable across runs.
func TestBuildDeterministic(t *testing.T) {
	a := Build()
	b := Build()
	sa, sb := a.N.Stats(), b.N.Stats()
	if sa != sb {
		t.Fatalf("gate statistics differ between builds:\n  first  %+v\n  second %+v", sa, sb)
	}
	if len(a.N.Gates) != len(b.N.Gates) {
		t.Fatalf("gate counts differ: %d vs %d", len(a.N.Gates), len(b.N.Gates))
	}
	if !slices.Equal(a.N.Gates, b.N.Gates) {
		// Locate the first divergent gate for a useful failure message.
		for i := range a.N.Gates {
			if a.N.Gates[i] != b.N.Gates[i] {
				t.Fatalf("builds diverge at gate %d:\n  first  %+v\n  second %+v",
					i, a.N.Gates[i], b.N.Gates[i])
			}
		}
	}
	if !slices.Equal(a.N.Modules, b.N.Modules) {
		t.Fatal("module tables differ between builds")
	}
	if !slices.Equal(a.N.Inputs, b.N.Inputs) {
		t.Fatal("input ports differ between builds")
	}
	if !slices.Equal(a.N.Outputs, b.N.Outputs) {
		t.Fatal("output ports differ between builds")
	}

	// The hand-off format must be stable too.
	var va, vb bytes.Buffer
	if err := a.N.WriteVerilog(&va, "core"); err != nil {
		t.Fatal(err)
	}
	if err := b.N.WriteVerilog(&vb, "core"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(va.Bytes(), vb.Bytes()) {
		t.Fatal("Verilog of the two builds differs")
	}
}
