// Package layout is the flow's stand-in for place and route: it places
// cells on a row grid, estimates per-net wirelength (half-perimeter of
// the net's bounding box), and derives die area. Wire capacitance feeds
// the power model and wire delay feeds static timing, so the physical
// shrink of a bespoke design (shorter wires, less load) is reflected in
// its reported power and slack, as in the paper's EDI-based flow.
package layout

import (
	"cmp"
	"math"
	"slices"

	"bespoke/internal/cells"
	"bespoke/internal/netlist"
)

// Result describes a placed design.
type Result struct {
	// CellAreaUm2 is the summed standard-cell area.
	CellAreaUm2 float64
	// AreaUm2 is the die area at the target utilization.
	AreaUm2 float64
	// Utilization is the placement density used.
	Utilization float64
	// WireLenUm[g] estimates the routed length of the net driven by
	// gate g (0 for unplaced pseudo-cells).
	WireLenUm []float64
	// TotalWireUm is the summed wirelength.
	TotalWireUm float64
	// X, Y hold each placed cell's coordinates in micrometres (zero for
	// pseudo-cells).
	X, Y []float64
}

// WireCapFF returns the routing capacitance of the net driven by g.
func (r *Result) WireCapFF(lib *cells.Library, g netlist.GateID) float64 {
	return r.WireLenUm[g] * lib.WireCapPerUm
}

// WireDelayPs returns the routing delay of the net driven by g.
func (r *Result) WireDelayPs(lib *cells.Library, g netlist.GateID) float64 {
	return r.WireLenUm[g] * lib.WireDelayPerUm
}

const defaultUtilization = 0.7

// Place performs the toy placement. It is deterministic: an initial
// topological ordering packs connected logic together, then a few
// centroid-refinement passes shorten nets.
func Place(n *netlist.Netlist, lib *cells.Library) *Result {
	r := &Result{
		Utilization: defaultUtilization,
		WireLenUm:   make([]float64, len(n.Gates)),
		X:           make([]float64, len(n.Gates)),
		Y:           make([]float64, len(n.Gates)),
	}

	// Real cells to place; pseudo-cells keep zero coordinates.
	placed := make([]bool, len(n.Gates))
	ncells := 0
	for i := range n.Gates {
		k := n.Gates[i].Kind
		switch k {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		r.CellAreaUm2 += lib.ByKind[k].Area
		placed[i] = true
		ncells++
	}
	if ncells == 0 {
		return r
	}
	r.AreaUm2 = r.CellAreaUm2 / r.Utilization
	side := math.Sqrt(r.AreaUm2)
	cols := int(math.Ceil(math.Sqrt(float64(ncells))))
	pitch := side / float64(cols)

	// Initial order: topological (levelized) order keeps fanin cones
	// adjacent; DFFs and sources first. A counting sort by level keeps
	// gate order within a level.
	lv, maxLvl, err := n.Levels()
	if err != nil {
		lv, maxLvl = make([]int32, len(n.Gates)), 0
	}
	next := make([]int, maxLvl+2)
	for i, ok := range placed {
		if ok {
			next[lv[i]+1]++
		}
	}
	for l := 1; l < len(next); l++ {
		next[l] += next[l-1]
	}
	order := make([]netlist.GateID, ncells)
	for i, ok := range placed {
		if ok {
			order[next[lv[i]]] = netlist.GateID(i)
			next[lv[i]]++
		}
	}

	// The grid slot of rank i holds order[i]; positions live in r.X and
	// r.Y throughout.
	assign := func() {
		for i, id := range order {
			r.X[id] = (float64(i%cols) + 0.5) * pitch
			r.Y[id] = (float64(i/cols) + 0.5) * pitch
		}
	}
	assign()

	// Centroid refinement: move each cell toward the average position of
	// its placed neighbors (input pins, then fanout readers), then
	// re-legalize by sorting back onto the grid, row-major by target
	// position, ties kept in the previous order.
	fanout := n.Fanout()
	keys := make([]slot, ncells)
	for pass := 0; pass < 3; pass++ {
		for i, id := range order {
			var sx, sy float64
			cnt := 0
			g := &n.Gates[id]
			for _, in := range g.In[:g.Kind.NumInputs()] {
				if in != netlist.None && placed[in] {
					sx += r.X[in]
					sy += r.Y[in]
					cnt++
				}
			}
			for _, fo := range fanout[id] {
				if placed[fo] {
					sx += r.X[fo]
					sy += r.Y[fo]
					cnt++
				}
			}
			x, y := r.X[id], r.Y[id]
			if cnt != 0 {
				x, y = sx/float64(cnt), sy/float64(cnt)
			}
			keys[i] = slot{y: math.Float64bits(y), x: math.Float64bits(x), rankID: uint64(i)<<32 | uint64(id)}
		}
		slices.SortFunc(keys, compareSlots)
		for i := range keys {
			order[i] = netlist.GateID(uint32(keys[i].rankID))
		}
		assign()
	}

	// Half-perimeter wirelength per net, summed in grid order.
	for _, id := range order {
		if len(fanout[id]) == 0 {
			continue
		}
		minX, maxX, minY, maxY := r.X[id], r.X[id], r.Y[id], r.Y[id]
		for _, fo := range fanout[id] {
			if !placed[fo] {
				continue
			}
			minX = math.Min(minX, r.X[fo])
			maxX = math.Max(maxX, r.X[fo])
			minY = math.Min(minY, r.Y[fo])
			maxY = math.Max(maxY, r.Y[fo])
		}
		l := (maxX - minX) + (maxY - minY)
		r.WireLenUm[id] = l
		r.TotalWireUm += l
	}
	return r
}

// slot is one cell's re-legalization sort key: its target y and x as
// float64 bits, which order like the values because coordinates are
// never negative, then its previous rank in the high half of rankID
// (unique, so the sort needs no stability) and its gate in the low half.
type slot struct {
	y, x, rankID uint64
}

func compareSlots(a, b slot) int {
	if a.y != b.y {
		return cmp.Compare(a.y, b.y)
	}
	if a.x != b.x {
		return cmp.Compare(a.x, b.x)
	}
	return cmp.Compare(a.rankID, b.rankID)
}
