package netlist

import (
	"fmt"

	"bespoke/internal/logic"
)

// BlockPins names the nets a behavioral block (a memory macro) reads and
// the Input-kind gates it drives. Scheduling treats every block output as
// depending combinationally on every block input.
type BlockPins struct {
	Inputs, Outputs []GateID
}

// Reader is one combinational fanout edge: the reading gate and its
// level, kept together so an event-driven simulator can enqueue the
// reader without a second random load.
type Reader struct {
	ID    GateID
	Level int32
}

// Schedule is the read-only evaluation plan of a netlist plus its
// blocks: everything a levelized, event-driven simulator derives from
// the structure before it holds a single value. Both gate simulators
// (internal/sim and internal/bitsim) build from it; each keeps its own
// value representation and hot loops.
type Schedule struct {
	// Levels is every gate's topological level over the combinational
	// graph augmented with block input->output edges. Flip-flops,
	// constants and inputs no block drives are level-0 sources; a
	// flip-flop output never constrains a reader's level.
	Levels   []int32
	MaxLevel int32

	// FanIdx/FanDat are the CSR (compressed sparse row) form of
	// combinational fanout: the non-sequential readers of net g are
	// FanDat[FanIdx[g]:FanIdx[g+1]]. Flip-flop D pins are left out: they
	// are sampled at the clock edge, never propagated during settle.
	FanIdx []int32
	FanDat []Reader

	// SubIdx/SubDat are the CSR form of block subscriptions: the blocks
	// reading net g are SubDat[SubIdx[g]:SubIdx[g+1]].
	SubIdx []int32
	SubDat []int32

	// QueueOff cuts one event-queue segment per level, sized to the
	// level's combinational population (each gate queues at most once per
	// settle): level l owns slots QueueOff[l]:QueueOff[l+1]. There are
	// MaxLevel+2 levels, the last always empty.
	QueueOff []int32

	// BlocksAt lists, per level, the blocks evaluated once that level has
	// settled: a block runs at the level of its highest input.
	// MinBlockLevel is the lowest such level (len(BlocksAt) without
	// blocks).
	BlocksAt      [][]int32
	MinBlockLevel int32

	// Dffs lists the flip-flops in gate order; DffD and DffReset hold
	// each one's D-input net and reset value in the same order.
	Dffs     []GateID
	DffD     []int32
	DffReset []logic.V
}

// Compile builds the schedule of n with the given blocks attached. It
// rejects block outputs that are not Input gates and combinational
// cycles, including cycles closed through a block's read path. The
// schedule is not cached: callers may compile one netlist concurrently.
func Compile(n *Netlist, blocks []BlockPins) (*Schedule, error) {
	for b, pins := range blocks {
		for _, out := range pins.Outputs {
			if k := n.Gates[out].Kind; k != Input {
				return nil, fmt.Errorf("netlist: block %d output gate %d is %s, want input", b, out, k)
			}
		}
	}
	lv, maxLvl, err := levelize(n, blocks)
	if err != nil {
		return nil, err
	}
	nG := len(n.Gates)
	s := &Schedule{Levels: lv, MaxLevel: maxLvl, Dffs: n.DffIDs()}

	s.FanIdx, s.FanDat = csr(nG, func(edge func(GateID, Reader)) {
		for i := range n.Gates {
			g := &n.Gates[i]
			if g.Kind.IsSeq() {
				continue
			}
			for _, in := range g.In[:g.Kind.NumInputs()] {
				if in != None {
					edge(in, Reader{ID: GateID(i), Level: lv[i]})
				}
			}
		}
	})
	s.SubIdx, s.SubDat = csr(nG, func(edge func(GateID, int32)) {
		for b, pins := range blocks {
			for _, in := range pins.Inputs {
				edge(in, int32(b))
			}
		}
	})

	nLvl := int(maxLvl) + 2
	s.QueueOff = make([]int32, nLvl+1)
	for i := range n.Gates {
		if k := n.Gates[i].Kind; !k.IsSeq() && k.NumInputs() > 0 {
			s.QueueOff[lv[i]+1]++
		}
	}
	for l := 0; l < nLvl; l++ {
		s.QueueOff[l+1] += s.QueueOff[l]
	}

	s.BlocksAt = make([][]int32, nLvl)
	s.MinBlockLevel = int32(nLvl)
	for b, pins := range blocks {
		at := int32(0)
		for _, in := range pins.Inputs {
			at = max(at, lv[in])
		}
		s.BlocksAt[at] = append(s.BlocksAt[at], int32(b))
		s.MinBlockLevel = min(s.MinBlockLevel, at)
	}

	s.DffD = make([]int32, len(s.Dffs))
	s.DffReset = make([]logic.V, len(s.Dffs))
	for i, id := range s.Dffs {
		s.DffD[i] = int32(n.Gates[id].In[0])
		s.DffReset[i] = n.Gates[id].Reset
	}
	return s, nil
}

// csr builds the compressed-sparse-row form of a relation from nets to
// values. edges enumerates every (net, value) pair; it is called twice,
// once to count and once to fill, and must enumerate the same pairs in
// the same order both times. Each row keeps enumeration order.
func csr[T any](nG int, edges func(edge func(GateID, T))) ([]int32, []T) {
	idx := make([]int32, nG+1)
	edges(func(net GateID, _ T) { idx[net+1]++ })
	for i := 0; i < nG; i++ {
		idx[i+1] += idx[i]
	}
	dat := make([]T, idx[nG])
	next := append([]int32(nil), idx[:nG]...)
	edges(func(net GateID, v T) {
		dat[next[net]] = v
		next[net]++
	})
	return idx, dat
}

// levelize assigns every gate its combinational level, treating each
// block output as a gate whose inputs are the block's inputs. A gate is
// one level above its highest non-sequential input; sources are level 0.
// It returns an error on a combinational cycle.
func levelize(n *Netlist, blocks []BlockPins) ([]int32, int32, error) {
	nG := len(n.Gates)
	var drivenBy []int32 // block index+1 driving each Input gate, 0 for none
	if len(blocks) > 0 {
		drivenBy = make([]int32, nG)
		for b, pins := range blocks {
			for _, out := range pins.Outputs {
				drivenBy[out] = int32(b) + 1
			}
		}
	}
	// fanins lists a gate's combinational predecessors without
	// allocating: a block-driven input's block inputs, or the gate's own
	// pins. Sources have none.
	fanins := func(id GateID) []GateID {
		g := &n.Gates[id]
		if g.Kind.IsSeq() {
			return nil
		}
		if drivenBy != nil && drivenBy[id] != 0 {
			return blocks[drivenBy[id]-1].Inputs
		}
		return g.In[:g.Kind.NumInputs()]
	}

	lv := make([]int32, nG)
	state := make([]uint8, nG) // 0 unvisited, 1 on the stack, 2 done
	var maxLvl int32
	// Iterative DFS: logic chains are too deep for recursion.
	type frame struct {
		id  GateID
		pin int
	}
	var stack []frame
	for root := range n.Gates {
		if state[root] != 0 {
			continue
		}
		stack = append(stack[:0], frame{id: GateID(root)})
		state[root] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			preds := fanins(f.id)
			if f.pin < len(preds) {
				p := preds[f.pin]
				f.pin++
				if p == None {
					continue
				}
				switch state[p] {
				case 0:
					state[p] = 1
					stack = append(stack, frame{id: p})
				case 1:
					return nil, 0, fmt.Errorf("netlist: combinational cycle through gate %d (%s %q)", p, n.Gates[p].Kind, n.Gates[p].Name)
				}
				continue
			}
			m := int32(-1)
			for _, p := range preds {
				if p != None && !n.Gates[p].Kind.IsSeq() {
					m = max(m, lv[p])
				}
			}
			lv[f.id] = m + 1
			maxLvl = max(maxLvl, m+1)
			state[f.id] = 2
			stack = stack[:len(stack)-1]
		}
	}
	return lv, maxLvl, nil
}
