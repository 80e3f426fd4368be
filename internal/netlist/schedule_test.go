package netlist_test

import (
	"reflect"
	"strings"
	"testing"

	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

func pin(id netlist.GateID) [3]netlist.GateID {
	return [3]netlist.GateID{id, netlist.None, netlist.None}
}

// blockChain builds in -> not -> not -> (block) -> buf, with a flip-flop
// on the block's other input: the block's outputs must land one level
// above its highest combinational input, and the flip-flop must not
// raise that level.
func blockChain() (n *netlist.Netlist, blk netlist.BlockPins, n1, n2, out, rd netlist.GateID) {
	n = netlist.New()
	in := n.Add(netlist.Gate{Kind: netlist.Input, Name: "in"})
	n1 = n.Add(netlist.Gate{Kind: netlist.Not, In: pin(in)})
	n2 = n.Add(netlist.Gate{Kind: netlist.Not, In: pin(n1)})
	ff := n.Add(netlist.Gate{Kind: netlist.Dff, In: pin(n2), Reset: logic.One})
	out = n.Add(netlist.Gate{Kind: netlist.Input, Name: "rdata"})
	rd = n.Add(netlist.Gate{Kind: netlist.Buf, In: pin(out)})
	blk = netlist.BlockPins{Inputs: []netlist.GateID{ff, n2}, Outputs: []netlist.GateID{out}}
	return n, blk, n1, n2, out, rd
}

func TestCompileBlockDrivenLevels(t *testing.T) {
	n, blk, n1, n2, out, rd := blockChain()
	s, err := netlist.Compile(n, []netlist.BlockPins{blk})
	if err != nil {
		t.Fatal(err)
	}
	if s.Levels[n1] != 1 || s.Levels[n2] != 2 {
		t.Fatalf("chain levels %d, %d, want 1, 2", s.Levels[n1], s.Levels[n2])
	}
	if s.Levels[out] != s.Levels[n2]+1 {
		t.Errorf("block output at level %d, want one above its highest input (%d)", s.Levels[out], s.Levels[n2])
	}
	if s.Levels[rd] != s.Levels[out]+1 || s.MaxLevel != s.Levels[rd] {
		t.Errorf("reader level %d, max %d, want %d", s.Levels[rd], s.MaxLevel, s.Levels[out]+1)
	}
	if s.MinBlockLevel != s.Levels[n2] || !reflect.DeepEqual(s.BlocksAt[s.Levels[n2]], []int32{0}) {
		t.Errorf("block evaluated at level %d (%v), want %d", s.MinBlockLevel, s.BlocksAt, s.Levels[n2])
	}
	// The flip-flop reads n2 through its D pin: a clock-edge sample,
	// not a combinational fanout edge.
	if got := s.FanDat[s.FanIdx[n2]:s.FanIdx[n2+1]]; len(got) != 0 {
		t.Errorf("fanout of n2 = %v, want none (only a flip-flop and the block read it)", got)
	}
	if got := s.FanDat[s.FanIdx[out]:s.FanIdx[out+1]]; !reflect.DeepEqual(got, []netlist.Reader{{ID: rd, Level: s.Levels[rd]}}) {
		t.Errorf("fanout of the block output = %v", got)
	}
	if got := s.SubDat[s.SubIdx[n2]:s.SubIdx[n2+1]]; !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("block subscriptions of n2 = %v, want [0]", got)
	}
	if got := len(s.QueueOff); got != int(s.MaxLevel)+3 {
		t.Errorf("%d queue offsets, want MaxLevel+3", got)
	}
	if len(s.Dffs) != 1 || s.DffD[0] != int32(n2) || s.DffReset[0] != logic.One {
		t.Errorf("flip-flop tables %v %v %v", s.Dffs, s.DffD, s.DffReset)
	}
}

// TestCompileRejectsBlockReadPathCycle closes a loop through the block:
// its output feeds logic that drives its own input.
func TestCompileRejectsBlockReadPathCycle(t *testing.T) {
	n, blk, _, _, _, rd := blockChain()
	blk.Inputs = append(blk.Inputs, rd)
	if _, err := netlist.Compile(n, []netlist.BlockPins{blk}); err == nil || !strings.Contains(err.Error(), "combinational cycle") {
		t.Fatalf("read-path cycle: err = %v, want a combinational cycle", err)
	}
	// Without the block the same netlist is acyclic.
	if _, err := netlist.Compile(n, nil); err != nil {
		t.Fatalf("no blocks: %v", err)
	}
}

func TestCompileRejectsNonInputBlockOutput(t *testing.T) {
	n, blk, n1, _, _, _ := blockChain()
	blk.Outputs = []netlist.GateID{n1}
	if _, err := netlist.Compile(n, []netlist.BlockPins{blk}); err == nil {
		t.Fatal("block driving a logic gate accepted")
	}
}

// TestLevelsIsNoBlockSchedule: the cached netlist levels are the
// schedule's levels with no blocks attached, on the real base core.
func TestLevelsIsNoBlockSchedule(t *testing.T) {
	n := cpu.Build().N
	lv, maxLvl, err := n.Levels()
	if err != nil {
		t.Fatal(err)
	}
	s, err := netlist.Compile(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lv, s.Levels) || maxLvl != s.MaxLevel {
		t.Fatalf("Levels (max %d) differs from the no-block schedule (max %d)", maxLvl, s.MaxLevel)
	}
}
