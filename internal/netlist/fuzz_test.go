package netlist_test

// The reader fuzzer lives in an external test package so the seed corpus
// can include the real core and the accepted netlists can go through
// lint (importing cpu or lint from inside package netlist would be a
// cycle).

import (
	"bytes"
	"context"
	"testing"

	"bespoke/internal/cpu"
	"bespoke/internal/lint"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// FuzzDecode holds ReadVerilog, the one reader of netlist files, to the
// contract of a decoder of outside input: whatever bytes arrive, it
// returns an error rather than panic, and any netlist it accepts passes
// Validate and lint.Run.
func FuzzDecode(f *testing.F) {
	// A four-gate netlist: an input, an inverter, a reset-to-1 flop and
	// an AND driving the output port.
	small := netlist.New()
	a := small.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := small.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{a}})
	q := small.Add(netlist.Gate{Kind: netlist.Dff, In: [3]netlist.GateID{g}, Reset: logic.One})
	y := small.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{a, q}})
	small.MarkOutput("y", y)
	var b bytes.Buffer
	if err := small.WriteVerilog(&b, "small"); err != nil {
		f.Fatal(err)
	}
	src := bytes.Clone(b.Bytes())
	f.Add(src)

	// The head of the base core: real port, wire, constant and instance
	// lines, cut off before most of the nets they read are defined.
	b.Reset()
	if err := cpu.Build().N.WriteVerilog(&b, "core"); err != nil {
		f.Fatal(err)
	}
	head := b.Bytes()[:4096]
	f.Add(head[:bytes.LastIndexByte(head, '\n')+1])

	// Malformed shapes: truncations, a flipped byte, text that is not
	// Verilog, nothing at all, a net driven twice and an input port
	// declared twice.
	f.Add(src[:len(src)/2])
	f.Add(src[:5])
	corrupt := bytes.Clone(src)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte("not a netlist"))
	f.Add([]byte{})
	f.Add([]byte("module m();\n  input n0;\n  BESPOKE_NOT g5(.y(n5), .a(n0));\n" +
		"  BESPOKE_BUF g6(.y(n5), .a(n0));\nendmodule\n"))
	f.Add([]byte("module m();\n  input n0;\n  input n0;\nendmodule\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := netlist.ReadVerilog(bytes.NewReader(data))
		if err != nil {
			return // rejected, which is always acceptable
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("accepted netlist fails Validate: %v", err)
		}
		if _, err := lint.Run(context.Background(), n, lint.Config{}); err != nil {
			t.Fatalf("accepted netlist fails lint.Run: %v", err)
		}
	})
}
