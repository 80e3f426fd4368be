// The campaign engine: 63 faulty worlds plus one golden lane per bitsim
// instance. Lane 0 always re-runs the fault-free workload and must
// reproduce the golden reference (the ISA model's output stream,
// cross-checked against a clean gate-level run) bit-exactly — a cheap
// per-batch guard on the bit-parallel engine before any fault outcome is
// trusted. Fault sites are validated up front: a stuck-at on an input or
// constant, an SEU on anything but a flip-flop and an SET on anything but
// a combinational gate are campaign errors.
package faultinject

import (
	"context"
	"fmt"

	"bespoke/internal/asm"
	"bespoke/internal/bitsim"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// faultLanes is the number of faulty worlds per instance; lane 0 is the
// golden lane.
const faultLanes = bitsim.Lanes - 1

// strike is one mid-run injection bound to its lane.
type strike struct {
	lane int // harness lane
	ci   int // index into the batch's chunk
	f    Fault
}

// injectBatch runs one chunk of up to 63 faults on a single bitsim
// instance and classifies every lane. out[i] receives chunk[i]'s result.
func injectBatch(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, g *Golden, chunk []Fault, out []*Result, opts Options) error {
	h, err := bitsim.NewHarness(c, prog, len(chunk)+1)
	if err != nil {
		return err
	}
	s := h.S

	// Configure lanes: lane 0 is golden, fault i lives in lane i+1.
	// Stuck-ats are validated and pinned now; SEU/SET strikes are
	// scheduled by cycle for the hook.
	byCycle := map[uint64][]strike{}
	for ci, f := range chunk {
		lane := ci + 1
		if int(f.Gate) < 0 || int(f.Gate) >= len(c.N.Gates) {
			return fmt.Errorf("faultinject: gate %d out of range", f.Gate)
		}
		k := c.N.Gates[f.Gate].Kind
		switch {
		case f.Pulse:
			if k.IsSeq() || k.NumInputs() == 0 {
				return fmt.Errorf("faultinject: gate %d (%s) is not a combinational SET site", f.Gate, k)
			}
			byCycle[f.Cycle] = append(byCycle[f.Cycle], strike{lane, ci, f})
		case f.Transient:
			if k != netlist.Dff {
				return fmt.Errorf("faultinject: gate %d (%s) is not a flip-flop SEU site", f.Gate, k)
			}
			byCycle[f.Cycle] = append(byCycle[f.Cycle], strike{lane, ci, f})
		default:
			switch k {
			case netlist.Input, netlist.Const0, netlist.Const1:
				return fmt.Errorf("faultinject: gate %d (%s) is not a fault site", f.Gate, k)
			}
			v := logic.Zero // anything but One, stuck-at-X included, ties the gate low
			if f.StuckAt == logic.One {
				v = logic.One
			}
			if err := s.ForceLane(f.Gate, lane, v); err != nil {
				return err
			}
		}
	}

	latched := make([]bool, len(chunk))
	var before, after []bitsim.W
	hook := func(h *bitsim.Harness) {
		ss := byCycle[h.Cycles()]
		if len(ss) == 0 {
			return
		}
		live := h.Live()
		var pulses []strike
		for _, st := range ss {
			if live>>uint(st.lane)&1 == 0 {
				continue // the lane retired before its strike cycle
			}
			if st.f.Transient {
				flip := logic.One
				if h.S.Val[st.f.Gate].Lane(st.lane) == logic.One {
					flip = logic.Zero
				}
				h.S.ForceDffLane(st.f.Gate, st.lane, flip)
				continue
			}
			pulses = append(pulses, st)
		}
		if len(pulses) == 0 {
			return
		}
		// SET: settle the fault-free cycle, snapshot the D pins, strike
		// every pulsed lane, resettle, and compare per lane — the scalar
		// latch classifier, word-at-a-time.
		h.S.Settle()
		before = h.S.DffDSnapshotPlanes(before)
		for _, st := range pulses {
			if _, err := h.S.InjectPulseLane(st.f.Gate, st.lane); err != nil {
				return // unreachable: sites were validated above
			}
		}
		h.S.Settle()
		after = h.S.DffDSnapshotPlanes(after)
		for _, st := range pulses {
			for i := range before {
				if before[i].Lane(st.lane) != after[i].Lane(st.lane) {
					latched[st.ci] = true
					break
				}
			}
		}
	}

	ws := make([]*core.Workload, len(chunk)+1)
	goldenW := core.Workload{}
	faultW := core.Workload{MaxCycles: g.hangBound()}
	if w != nil {
		goldenW = *w
		faultW.RAM, faultW.P1, faultW.IRQ = w.RAM, w.P1, w.IRQ
	}
	ws[0] = &goldenW
	for ci := range chunk {
		ws[ci+1] = &faultW
	}
	if err := h.Run(ctx, ws, hook); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("faultinject: campaign aborted: %w", cerr)
		}
		return err
	}

	// The golden lane is the engine guard: any deviation from the scalar
	// golden reference is a simulator bug, not a fault effect.
	gl := h.Lane[0]
	if gl.Status != bitsim.LaneHalted || gl.Cycles != g.Cycles || bitsim.DiffStreams(g.Out, gl.Out) != "" {
		return fmt.Errorf("faultinject: golden lane diverged from the scalar reference (%s after %d cycles, golden halted at %d): batched engine bug",
			gl.Status, gl.Cycles, g.Cycles)
	}

	for ci := range chunk {
		lane := h.Lane[ci+1]
		f := chunk[ci]
		var res Result
		switch lane.Status {
		case bitsim.LaneHalted:
			switch d := bitsim.DiffStreams(g.Out, lane.Out); {
			case d != "":
				res = Result{Fault: f, Outcome: SDC, Detail: d}
			case lane.Cycles != g.Cycles:
				res = Result{Fault: f, Outcome: SDC,
					Detail: fmt.Sprintf("halted at cycle %d, golden %d", lane.Cycles, g.Cycles)}
			case latched[ci]:
				res = Result{Fault: f, Outcome: Latched,
					Detail: "corrupted flip-flop state at the strike edge, architecturally silent"}
			default:
				res = Result{Fault: f, Outcome: Masked}
			}
		default: // poisoned or over budget: the run never halted
			res = Result{Fault: f, Outcome: Hang, Detail: truncate(lane.Detail)}
		}
		out[ci] = &res
	}

	return nil
}
