package induct

import (
	"encoding/binary"
	"fmt"

	"bespoke/internal/equiv"
)

// InvariantRecord summarizes one proved invariant and its use across a
// claim sweep.
type InvariantRecord struct {
	// Name is the invariant's label ("r0#range", "g12=1->g40=0", ...).
	Name string `json:"name"`
	// K is the induction depth that discharged it.
	K int `json:"k"`
	// Cubes is the cube count of a cube-set invariant (0: implication).
	Cubes int `json:"cubes,omitempty"`
	// Used counts claim proofs whose UNSAT core included the invariant.
	Used int `json:"used"`
}

// Provenance is the audit trail of a proof report: which proved
// invariants the sweep had available, how deeply each was discharged,
// and how many per-claim proofs actually rested on each.
type Provenance struct {
	Invariants []InvariantRecord
}

// BuildProvenance combines the proved invariants with the report's usage
// tallies.
func BuildProvenance(invs []equiv.Invariant, rep *equiv.Report) *Provenance {
	use := rep.InvariantUse(len(invs))
	p := &Provenance{}
	for i := range invs {
		p.Invariants = append(p.Invariants, InvariantRecord{
			Name:  invs[i].Name,
			K:     invs[i].K,
			Cubes: len(invs[i].Cubes),
			Used:  use[i],
		})
	}
	return p
}

// provMagic versions the binary encoding.
const provMagic = "bPv1"

// appendUvarint appends v in unsigned varint form.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// Encode renders the canonical binary form, the input of a provenance
// digest.
func (p *Provenance) Encode() []byte {
	b := []byte(provMagic)
	b = appendUvarint(b, uint64(len(p.Invariants)))
	for i := range p.Invariants {
		r := &p.Invariants[i]
		b = appendUvarint(b, uint64(len(r.Name)))
		b = append(b, r.Name...)
		b = appendUvarint(b, uint64(r.K))
		b = appendUvarint(b, uint64(r.Cubes))
		b = appendUvarint(b, uint64(r.Used))
	}
	return b
}

// String renders a short human-readable summary.
func (p *Provenance) String() string {
	used := 0
	for i := range p.Invariants {
		if p.Invariants[i].Used > 0 {
			used++
		}
	}
	return fmt.Sprintf("%d invariants, %d used by proofs", len(p.Invariants), used)
}
