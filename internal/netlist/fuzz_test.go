package netlist_test

// The codec fuzzer lives in an external test package so the seed corpus
// can include the real designs the cache stores: the elaborated base
// core and a cut-and-resynthesized variant (importing cpu or core from
// inside package netlist would be a cycle).

import (
	"bytes"
	"testing"

	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// FuzzDecode proves the binary codec is safe on hostile input: whatever
// bytes arrive, Decode must return an error rather than panic or
// over-allocate, and anything it does accept must re-encode to a stable
// canonical form.
func FuzzDecode(f *testing.F) {
	// A tiny hand-built netlist with every field class exercised.
	small := netlist.New()
	a := small.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	m := small.AddModule("top/u0")
	g := small.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{a}, Module: m})
	q := small.Add(netlist.Gate{Kind: netlist.Dff, In: [3]netlist.GateID{g}, Reset: logic.One})
	small.MarkOutput("q", q)
	f.Add(netlist.Encode(small))

	// The base core, and a tailored-style variant that has been through
	// cut + re-synthesis — the two shapes the tailoring cache round-trips.
	base := cpu.Build()
	enc := netlist.Encode(base.N)
	f.Add(enc)

	tailored := base.Clone()
	toggled := make([]bool, len(tailored.N.Gates))
	constVal := make([]logic.V, len(tailored.N.Gates))
	for i := range toggled {
		toggled[i] = true
	}
	// Statically park the debug unit, like a cut of a debugger-free
	// application would.
	for _, id := range tailored.N.GatesByModule()["dbg"] {
		if !tailored.N.Gates[id].Kind.IsSeq() && tailored.N.Gates[id].Kind.NumInputs() > 0 {
			toggled[id] = false
			constVal[id] = logic.Zero
		}
	}
	if _, _, err := core.CutAndResynthesize(tailored, toggled, constVal); err != nil {
		f.Fatal(err)
	}
	f.Add(netlist.Encode(tailored.N))

	// Malformed shapes: truncations, a flipped byte, bad magic, and a
	// forged huge-count header.
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:5])
	corrupt := bytes.Clone(enc)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte("not a netlist"))
	f.Add([]byte{})
	f.Add(append([]byte("BNL1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := netlist.Decode(data)
		if err != nil {
			return // rejected, which is always acceptable
		}
		// Accepted input must reach a canonical fixed point: the decoded
		// netlist re-encodes, and that encoding decodes to byte-identical
		// output. (The raw input itself may be non-minimal varint coding,
		// so it is not required to equal its own re-encoding.)
		canon := netlist.Encode(n)
		n2, err := netlist.Decode(canon)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(netlist.Encode(n2), canon) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
