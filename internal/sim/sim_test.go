package sim

import (
	"testing"

	"bespoke/internal/builder"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// buildCounter returns an 8-bit counter with enable.
func buildCounter() (*builder.Builder, builder.Wire, builder.Bus) {
	b := builder.New()
	en := b.Input("en")
	r := b.Register("cnt", 8, 0)
	inc, _ := b.Inc(r.Q)
	b.SetNextEn(r, en, inc)
	b.OutputBus("cnt", r.Q)
	return b, en, r.Q
}

func TestCounter(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if got := s.ReadBus(q); !got.Known() || got.Val != 0 {
		t.Fatalf("after reset counter = %v", got)
	}
	s.Drive(en, logic.One)
	for i := 1; i <= 300; i++ {
		s.Step()
		s.Settle()
		got := s.ReadBus(q)
		if !got.Known() || got.Val != uint16(i%256) {
			t.Fatalf("cycle %d: counter = %v, want %d", i, got, i%256)
		}
	}
	// Disable: value holds.
	s.Drive(en, logic.Zero)
	before := s.ReadBus(q).Val
	for i := 0; i < 5; i++ {
		s.Step()
	}
	s.Settle()
	if got := s.ReadBus(q).Val; got != before {
		t.Fatalf("counter moved while disabled: %d -> %d", before, got)
	}
}

func TestXPropagationThroughCounter(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(en, logic.X)
	s.Step()
	s.Settle()
	got := s.ReadBus(q)
	// With X enable, bit 0 could be 0 or 1: must be X; upper bits still
	// known 0 (0+1 doesn't reach them).
	if got.Bit(0) != logic.X {
		t.Errorf("bit0 = %v, want X", got.Bit(0))
	}
	if got.Bit(7) != logic.Zero {
		t.Errorf("bit7 = %v, want 0", got.Bit(7))
	}
}

func TestControllingValueStopsX(t *testing.T) {
	b := builder.New()
	x := b.Input("x")
	y := b.Input("y")
	and := b.And(x, y)
	or := b.Or(x, y)
	b.Output("and", and)
	b.Output("or", or)
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(x, logic.X)
	s.Drive(y, logic.Zero)
	s.Settle()
	if s.Val[and] != logic.Zero {
		t.Errorf("X&0 = %v, want 0", s.Val[and])
	}
	if s.Val[or] != logic.X {
		t.Errorf("X|0 = %v, want X", s.Val[or])
	}
}

func TestActivityTracking(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(en, logic.Zero)
	s.Settle()
	s.ResetActivity()
	// Counter disabled: stepping must not mark the counter bits active.
	for i := 0; i < 10; i++ {
		s.Step()
	}
	s.Settle()
	for i, id := range q {
		if s.Active[id] {
			t.Errorf("bit %d active while disabled", i)
		}
	}
	// Enable: low bits become active.
	s.Drive(en, logic.One)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	s.Settle()
	if !s.Active[q[0]] || !s.Active[q[1]] {
		t.Error("low counter bits not active after counting")
	}
	if s.Active[q[7]] {
		t.Error("bit 7 active after only 3 increments")
	}
}

func TestToggleCounts(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(en, logic.One)
	s.Settle()
	s.ResetToggleCounts()
	for i := 0; i < 16; i++ {
		s.Step()
	}
	s.Settle()
	// Bit 0 toggles every cycle, bit 1 every 2nd, bit 2 every 4th.
	if got := s.ToggleCount[q[0]]; got != 16 {
		t.Errorf("bit0 toggles = %d, want 16", got)
	}
	if got := s.ToggleCount[q[1]]; got != 8 {
		t.Errorf("bit1 toggles = %d, want 8", got)
	}
	if got := s.ToggleCount[q[2]]; got != 4 {
		t.Errorf("bit2 toggles = %d, want 4", got)
	}
}

func TestDffChainShiftsOnePerCycle(t *testing.T) {
	// A DFF-to-DFF chain must move data exactly one stage per edge.
	b := builder.New()
	in := b.Input("in")
	r1 := b.Register("r1", 1, 0)
	r2 := b.Register("r2", 1, 0)
	b.SetNext(r1, builder.Bus{in})
	b.SetNext(r2, r1.Q)
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(in, logic.One)
	s.Step() // r1 <- 1, r2 <- old r1 (0)
	s.Settle()
	if s.Val[r1.Q[0]] != logic.One || s.Val[r2.Q[0]] != logic.Zero {
		t.Fatalf("after 1 edge: r1=%v r2=%v, want 1,0", s.Val[r1.Q[0]], s.Val[r2.Q[0]])
	}
	s.Step()
	s.Settle()
	if s.Val[r2.Q[0]] != logic.One {
		t.Fatal("after 2 edges r2 should be 1")
	}
}

// buildRAMHarness wires a RAM to input pins for direct pin-level tests.
func buildRAMHarness(t *testing.T) (*Sim, struct {
	addr, wdata, rdata builder.Bus
	en, wl, wh         builder.Wire
}) {
	t.Helper()
	b := builder.New()
	var pins struct {
		addr, wdata, rdata builder.Bus
		en, wl, wh         builder.Wire
	}
	pins.addr = b.InputBus("addr", 4)
	pins.wdata = b.InputBus("wdata", 16)
	pins.rdata = b.InputBus("rdata", 16) // block-driven
	pins.en = b.Input("en")
	pins.wl = b.Input("wl")
	pins.wh = b.Input("wh")
	b.OutputBus("q", pins.rdata)
	ram := NewRAM(pins.addr, pins.wdata, pins.rdata, pins.en, pins.wl, pins.wh)
	s, err := New(b.N, ram)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	return s, pins
}

func TestRAMReadWrite(t *testing.T) {
	s, p := buildRAMHarness(t)
	// Power-on contents are X.
	s.Drive(p.en, logic.One)
	s.Drive(p.wl, logic.Zero)
	s.Drive(p.wh, logic.Zero)
	s.DriveBus(p.addr, logic.KnownWord(3))
	s.Settle()
	if got := s.ReadBus(p.rdata); got.Known() {
		t.Fatalf("uninitialized RAM read = %v, want X", got)
	}
	// Write word 3.
	s.DriveBus(p.wdata, logic.KnownWord(0xBEEF))
	s.Drive(p.wl, logic.One)
	s.Drive(p.wh, logic.One)
	s.Step()
	s.Drive(p.wl, logic.Zero)
	s.Drive(p.wh, logic.Zero)
	s.Settle()
	if got := s.ReadBus(p.rdata); !got.Known() || got.Val != 0xBEEF {
		t.Fatalf("read back = %v, want BEEF", got)
	}
	// Byte write low lane only.
	s.DriveBus(p.wdata, logic.KnownWord(0x1234))
	s.Drive(p.wl, logic.One)
	s.Step()
	s.Drive(p.wl, logic.Zero)
	s.Settle()
	if got := s.ReadBus(p.rdata); got.Val != 0xBE34 {
		t.Fatalf("after low-byte write = %v, want BE34", got)
	}
}

func TestRAMConservativeWrites(t *testing.T) {
	s, p := buildRAMHarness(t)
	// Concrete-fill two words.
	ram := s.Blocks()[0].(*RAM)
	ram.SetWord(1, logic.KnownWord(0x1111))
	ram.SetWord(2, logic.KnownWord(0x2222))
	// Possible write (wen = X) to known address 1: word merges with data.
	s.Drive(p.en, logic.One)
	s.Drive(p.wh, logic.X)
	s.Drive(p.wl, logic.X)
	s.DriveBus(p.addr, logic.KnownWord(1))
	s.DriveBus(p.wdata, logic.KnownWord(0x1110))
	s.Step()
	w := ram.Word(1)
	// 0x1111 merge 0x1110: bit 0 differs -> X, rest known.
	if w.Bit(0) != logic.X || w.Bit(4) != logic.One {
		t.Fatalf("possible write merge = %v", w)
	}
	if got := ram.Word(2); !got.Known() || got.Val != 0x2222 {
		t.Fatalf("unrelated word changed: %v", got)
	}
	// Definite write to X address: all reachable words merge.
	s.Drive(p.wh, logic.One)
	s.Drive(p.wl, logic.One)
	s.DriveBus(p.addr, logic.Word{Val: 0, Mask: 0x3}) // addr in 0..3
	s.DriveBus(p.wdata, logic.KnownWord(0xFFFF))
	s.Step()
	if got := ram.Word(2); got.Known() {
		t.Fatalf("word 2 escaped conservative X-address write: %v", got)
	}
	if got := ram.Word(5); !got.Known() && got.Mask != 0xFFFF {
		// word 5 unreachable (addr mask 0..3): it was X from power-on
		// in this test? No: only 1,2 were set. 5 stays X - fine.
		_ = got
	}
}

func TestROM(t *testing.T) {
	b := builder.New()
	addr := b.InputBus("addr", 4)
	rdata := b.InputBus("rdata", 16)
	en := b.Input("en")
	rom := NewROM(addr, rdata, en)
	rom.Load(0, []uint16{10, 20, 30, 40})
	s, err := New(b.N, rom)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(en, logic.One)
	for i := uint16(0); i < 4; i++ {
		s.DriveBus(addr, logic.KnownWord(i))
		s.Settle()
		if got := s.ReadBus(rdata); got.Val != (i+1)*10 {
			t.Fatalf("rom[%d] = %v", i, got)
		}
	}
	// X address reads X.
	s.DriveBus(addr, logic.Word{Mask: 1})
	s.Settle()
	if got := s.ReadBus(rdata); got.Known() {
		t.Fatalf("rom[X] = %v, want X", got)
	}
	// Disabled reads 0.
	s.Drive(en, logic.Zero)
	s.DriveBus(addr, logic.KnownWord(0))
	s.Settle()
	if got := s.ReadBus(rdata); got.Val != 0 || !got.Known() {
		t.Fatalf("disabled rom read = %v, want 0", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(en, logic.One)
	for i := 0; i < 7; i++ {
		s.Step()
	}
	s.Settle()
	snap := s.DffSnapshot()
	for i := 0; i < 5; i++ {
		s.Step()
	}
	s.Settle()
	if s.ReadBus(q).Val != 12 {
		t.Fatalf("counter = %v, want 12", s.ReadBus(q))
	}
	s.RestoreDffs(snap)
	s.Settle()
	if s.ReadBus(q).Val != 7 {
		t.Fatalf("restored counter = %v, want 7", s.ReadBus(q))
	}
}

func TestForceDff(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	_ = en
	for i, id := range q {
		s.ForceDff(id, logic.FromBool(0x2A>>uint(i)&1 == 1))
	}
	s.Settle()
	if got := s.ReadBus(q); got.Val != 0x2A {
		t.Fatalf("forced = %v", got)
	}
}

func TestRAMStateCoversMerge(t *testing.T) {
	r := NewRAM(make([]netlist.GateID, 2), nil, nil, 0, 0, 0)
	r.SetWord(0, logic.KnownWord(5))
	r.SetWord(1, logic.KnownWord(9))
	a := r.Snapshot()
	r.SetWord(1, logic.KnownWord(8))
	bst := r.Snapshot()
	if a.Covers(bst) {
		t.Error("different states cover")
	}
	m := a.Merge(bst)
	if !m.Covers(a) || !m.Covers(bst) {
		t.Error("merge does not cover operands")
	}
	ms := m.(*ramState)
	if ms.words[0] != logic.KnownWord(5) {
		t.Error("merge disturbed agreeing word")
	}
	if ms.words[1].Known() {
		t.Error("merge failed to X differing word")
	}
}

func TestInjectPulseLatchesAndRecovers(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(en, logic.One)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	s.Settle()
	if got := s.ReadBus(q).Val; got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	// Strike the D net of counter bit 0: the next value is 4, so bit 0's
	// D carries 0 and the pulse flips it to 1.
	d0 := s.N.Gates[q[0]].In[0]
	before := s.DffDSnapshotInto(nil)
	flip, err := s.InjectPulse(d0)
	if err != nil {
		t.Fatal(err)
	}
	if flip != logic.One || s.Val[d0] != logic.One {
		t.Fatalf("pulse drove %v (net now %v), want 1", flip, s.Val[d0])
	}
	s.Settle()
	after := s.DffDSnapshotInto(nil)
	diff := 0
	for i := range before {
		if before[i] != after[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("settled D snapshot unchanged by a pulse on a D net")
	}
	// The edge latches the glitch (4 becomes 5) and the struck gate heals.
	s.Edge()
	s.Settle()
	if got := s.ReadBus(q).Val; got != 5 {
		t.Fatalf("counter after strike = %d, want 5 (4 with bit 0 corrupted)", got)
	}
	if len(s.pulsed) != 0 {
		t.Fatalf("%d pulses survived the edge", len(s.pulsed))
	}
	// Post-strike the machine runs correctly from the corrupted state.
	s.Step()
	s.Settle()
	if got := s.ReadBus(q).Val; got != 6 {
		t.Fatalf("counter one cycle after strike = %d, want 6", got)
	}
}

func TestInjectPulseRejectsNonCombSites(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if _, err := s.InjectPulse(q[0]); err == nil {
		t.Error("pulse on a flip-flop accepted")
	}
	if _, err := s.InjectPulse(en); err == nil {
		t.Error("pulse on a primary input accepted")
	}
	if _, err := s.InjectPulse(netlist.GateID(len(s.N.Gates))); err == nil {
		t.Error("pulse on an out-of-range gate accepted")
	}
}

func TestResetClearsPulses(t *testing.T) {
	b, en, q := buildCounter()
	s, err := New(b.N)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Drive(en, logic.One)
	s.Settle()
	if _, err := s.InjectPulse(s.N.Gates[q[0]].In[0]); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if len(s.pulsed) != 0 {
		t.Fatal("Reset kept a pending pulse")
	}
	if got := s.ReadBus(q); !got.Known() || got.Val != 0 {
		t.Fatalf("counter after reset = %v, want 0", got)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{0, netlist.None, netlist.None}})
	bID := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{a, netlist.None, netlist.None}})
	n.Gates[a].In[0] = bID
	if _, err := New(n); err == nil {
		t.Fatal("cycle not detected")
	}
}

// TestBlockReadPathCycleDetected closes a combinational loop through a
// block's read path: the ROM's data output drives its own address.
func TestBlockReadPathCycleDetected(t *testing.T) {
	n := netlist.New()
	rdata := n.Add(netlist.Gate{Kind: netlist.Input, Name: "rdata"})
	addr := n.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{rdata, netlist.None, netlist.None}})
	en := n.Add(netlist.Gate{Kind: netlist.Input, Name: "en"})
	rom := NewROM([]netlist.GateID{addr}, []netlist.GateID{rdata}, en)
	if _, err := New(n, rom); err == nil {
		t.Fatal("cycle through the ROM read path not detected")
	}
	if _, err := New(n); err != nil {
		t.Fatalf("the same netlist without the block: %v", err)
	}
}
