package induct

import (
	"encoding/base64"
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

// Provenance is the audit trail persisted alongside a proof report: which
// proved invariants the sweep had available, how deeply each was
// discharged, and how many per-claim proofs actually rested on each. It
// round-trips through a compact self-delimiting binary form (base64 in
// JSON) so cached reports stay small and diffable.
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

// maxProvRecords bounds decoding against corrupt counts.
const maxProvRecords = 1 << 20

// appendUvarint appends v in unsigned varint form.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// Encode renders the canonical binary form.
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

// DecodeProvenance parses the binary form. Every length and count is
// bounds-checked before use, so arbitrary input returns an error rather
// than panicking, and any accepted input re-encodes to the identical
// bytes (a fixed point — the encoding is canonical).
func DecodeProvenance(b []byte) (*Provenance, error) {
	if len(b) < len(provMagic) || string(b[:len(provMagic)]) != provMagic {
		return nil, fmt.Errorf("induct: provenance magic missing")
	}
	b = b[len(provMagic):]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("induct: provenance truncated")
		}
		b = b[n:]
		return v, nil
	}
	count, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if count > maxProvRecords {
		return nil, fmt.Errorf("induct: provenance record count %d too large", count)
	}
	p := &Provenance{}
	for i := uint64(0); i < count; i++ {
		var r InvariantRecord
		nameLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(b)) {
			return nil, fmt.Errorf("induct: provenance name truncated")
		}
		r.Name = string(b[:nameLen])
		b = b[nameLen:]
		for _, dst := range []*int{&r.K, &r.Cubes, &r.Used} {
			v, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if v > 1<<31 {
				return nil, fmt.Errorf("induct: provenance field %d out of range", v)
			}
			*dst = int(v)
		}
		p.Invariants = append(p.Invariants, r)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("induct: %d trailing bytes after provenance", len(b))
	}
	return p, nil
}

// MarshalText implements encoding.TextMarshaler (base64 of Encode), so a
// Provenance embeds directly in cached JSON reports.
func (p *Provenance) MarshalText() ([]byte, error) {
	return []byte(base64.StdEncoding.EncodeToString(p.Encode())), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *Provenance) UnmarshalText(text []byte) error {
	raw, err := base64.StdEncoding.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("induct: provenance base64: %w", err)
	}
	dec, err := DecodeProvenance(raw)
	if err != nil {
		return err
	}
	*p = *dec
	return nil
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
