package netlist

import (
	"bytes"
	"strings"
	"testing"

	"bespoke/internal/logic"
)

func buildSmall() *Netlist {
	n := New()
	in := n.Add(Gate{Kind: Input, Name: "din"})
	inv := n.Add(Gate{Kind: Not, In: [3]GateID{in}})
	ff := n.Add(Gate{Kind: Dff, In: [3]GateID{inv}, Reset: logic.One, Name: "q"})
	mux := n.Add(Gate{Kind: Mux, In: [3]GateID{in, ff, inv}})
	n.MarkOutput("out", mux)
	return n
}

func TestWriteVerilog(t *testing.T) {
	n := buildSmall()
	var b bytes.Buffer
	if err := n.WriteVerilog(&b, "tiny"); err != nil {
		t.Fatal(err)
	}
	v := b.String()
	for _, want := range []string{
		"module tiny(clk, rst, n0, out);",
		"input clk, rst;",
		"BESPOKE_NOT",
		"BESPOKE_DFF1", // reset-to-1 flop
		"BESPOKE_MUX",
		"assign out = n3;",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q in:\n%s", want, v)
		}
	}
}

func TestWriteVerilogConstants(t *testing.T) {
	n := New()
	c0 := n.Add(Gate{Kind: Const0})
	c1 := n.Add(Gate{Kind: Const1})
	a := n.Add(Gate{Kind: And, In: [3]GateID{c0, c1}})
	n.MarkOutput("y", a)
	var b bytes.Buffer
	if err := n.WriteVerilog(&b, "m"); err != nil {
		t.Fatal(err)
	}
	v := b.String()
	if !strings.Contains(v, "= 1'b0;") || !strings.Contains(v, "= 1'b1;") {
		t.Errorf("constants not emitted:\n%s", v)
	}
}

func TestSummary(t *testing.T) {
	n := buildSmall()
	s := n.Summary()
	if len(s) != 3 {
		t.Fatalf("summary = %v", s)
	}
	total := 0
	for _, kc := range s {
		total += kc.Count
	}
	if total != n.CellCount() {
		t.Errorf("summary total %d != cell count %d", total, n.CellCount())
	}
	// Sorted by count descending.
	for i := 1; i < len(s); i++ {
		if s[i].Count > s[i-1].Count {
			t.Error("summary not sorted")
		}
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	n := buildSmall()
	var b bytes.Buffer
	if err := n.WriteVerilog(&b, "tiny"); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadVerilog(&b)
	if err != nil {
		t.Fatal(err)
	}
	if n2.CellCount() != n.CellCount() {
		t.Fatalf("round trip changed cell count: %d -> %d", n.CellCount(), n2.CellCount())
	}
	s1, s2 := n.Stats(), n2.Stats()
	if s1.Dffs != s2.Dffs || s1.Comb != s2.Comb || s1.Depth != s2.Depth {
		t.Fatalf("round trip changed stats: %+v -> %+v", s1, s2)
	}
	if len(n2.Outputs) != len(n.Outputs) {
		t.Fatalf("outputs: %d -> %d", len(n.Outputs), len(n2.Outputs))
	}
	// Reset values survive.
	dffs2 := n2.DffIDs()
	if len(dffs2) != 1 || n2.Gates[dffs2[0]].Reset != logic.One {
		t.Fatal("DFF reset value lost in round trip")
	}
}

func TestReadVerilogRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"  FOO g1(.y(n1));\n",
		"  assign x =\n",
		"  BESPOKE_AND g1(.y(n1), .a(nope), .b(n1));\n",
		// A net driven twice, and an input port declared twice.
		"  input n0;\n  BESPOKE_NOT g5(.y(n5), .a(n0));\n  BESPOKE_BUF g6(.y(n5), .a(n0));\n",
		"  input n0;\n  input n0;\n",
		"  input n0;\n  assign n0 = 1'b1;\n",
		"  output y;\n  input n0, n1;\n  assign y = n0;\n  assign y = n1;\n",
	} {
		if _, err := ReadVerilog(strings.NewReader("module m();\n" + src + "endmodule\n")); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}
