package layout_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/layout"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

// placeDigest is the SHA-256 of every placement TestPlacePinned records.
// It changes only when a placement does: a cell moved, a net's length or
// the summed wirelength moved by one ulp, or a die area changed. A change
// meant to leave placement alone (storage, sorting speed) must keep it.
const placeDigest = "22f0eb9e3145fd3a6732f5f3df0da6071cc9330c32dd91e60cd392f0be150315"

func hashFloats(h hash.Hash, fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

func hashPlacement(h hash.Hash, r *layout.Result) {
	hashFloats(h, r.X...)
	hashFloats(h, r.Y...)
	hashFloats(h, r.WireLenUm...)
	hashFloats(h, r.TotalWireUm, r.CellAreaUm2, r.AreaUm2)
}

// TestPlacePinned pins Place on the base core and on the bespoke cores
// of three catalog programs (analysis, then cut and re-synthesis): the
// SHA-256 of every cell's coordinates, every net's wirelength, the summed
// wirelength and both areas must equal placeDigest.
func TestPlacePinned(t *testing.T) {
	lib := cells.TSMC65()
	h := sha256.New()
	nls := []*netlist.Netlist{cpu.Build().N}
	for _, name := range []string{"mult", "binSearch", "irq"} {
		res, c, err := core.Analyze(context.Background(), bench.ByName(name).MustProg(), symexec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := core.CutAndResynthesize(c, res.Toggled, res.ConstVal); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nls = append(nls, c.N)
	}
	for _, n := range nls {
		hashPlacement(h, layout.Place(n, lib))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != placeDigest {
		t.Fatalf("placement digest %s, want %s: a placement changed", got, placeDigest)
	}
}
