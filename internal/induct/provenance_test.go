package induct

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"bespoke/internal/equiv"
)

func sampleProvenance() *Provenance {
	return &Provenance{Invariants: []InvariantRecord{
		{Name: "r0", K: 1, Cubes: 36, Used: 4},
		{Name: "state#range", K: 2, Cubes: 3, Used: 0},
		{Name: "g12=1->g40=0", K: 1, Used: 17},
	}}
}

// decodeProvenance inverts Encode. It is the test oracle for the
// property TestInductMultPinned's digest rests on: Encode loses no field
// and no record boundary, so two provenances that hash alike are alike.
// Every length and count is bounds-checked before use, so arbitrary
// input returns an error rather than panicking.
func decodeProvenance(b []byte) (*Provenance, error) {
	if len(b) < len(provMagic) || string(b[:len(provMagic)]) != provMagic {
		return nil, fmt.Errorf("provenance magic missing")
	}
	b = b[len(provMagic):]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("provenance truncated")
		}
		if n != len(binary.AppendUvarint(nil, v)) {
			return 0, fmt.Errorf("provenance varint not minimal")
		}
		b = b[n:]
		return v, nil
	}
	count, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(b)) { // every record takes at least one byte
		return nil, fmt.Errorf("provenance record count %d too large", count)
	}
	p := &Provenance{}
	for i := uint64(0); i < count; i++ {
		var r InvariantRecord
		nameLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(b)) {
			return nil, fmt.Errorf("provenance name truncated")
		}
		r.Name = string(b[:nameLen])
		b = b[nameLen:]
		for _, dst := range []*int{&r.K, &r.Cubes, &r.Used} {
			v, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if v > 1<<31 {
				return nil, fmt.Errorf("provenance field %d out of range", v)
			}
			*dst = int(v)
		}
		p.Invariants = append(p.Invariants, r)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after provenance", len(b))
	}
	return p, nil
}

func TestProvenanceRoundTrip(t *testing.T) {
	p := sampleProvenance()
	enc := p.Encode()
	dec, err := decodeProvenance(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(p, dec) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p, dec)
	}
	// Through JSON, the form bespoke prove -json reports the records in.
	js, err := json.Marshal(p.Invariants)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []InvariantRecord
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p.Invariants, back) {
		t.Fatalf("JSON round trip mismatch:\n%+v\n%+v", p.Invariants, back)
	}
}

func TestProvenanceRejectsCorruption(t *testing.T) {
	enc := sampleProvenance().Encode()
	if _, err := decodeProvenance(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
	if _, err := decodeProvenance(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := decodeProvenance(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBuildProvenance(t *testing.T) {
	invs := []equiv.Invariant{
		{Name: "a", K: 1, Bits: nil},
		{Name: "b", K: 2},
	}
	rep := &equiv.Report{Results: []equiv.ClaimResult{
		{Verdict: equiv.ProvedSAT, Used: []int32{0}},
		{Verdict: equiv.ProvedSAT, Used: []int32{0, 1}},
	}}
	p := BuildProvenance(invs, rep)
	if p.Invariants[0].Used != 2 || p.Invariants[1].Used != 1 {
		t.Fatalf("use counts wrong: %+v", p.Invariants)
	}
}

// FuzzProvenanceDecode holds Encode to being canonical: arbitrary input
// never panics the decoder, and any input it accepts re-encodes to the
// identical bytes, so each provenance has exactly one encoding and one
// digest.
func FuzzProvenanceDecode(f *testing.F) {
	valid := sampleProvenance().Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(provMagic))
	f.Add(valid[:len(valid)/2])                         // truncated mid-record
	f.Add(append([]byte("bPv2"), valid[4:]...))         // version skew
	f.Add(append([]byte(nil), valid[:len(valid)-3]...)) // missing tail fields
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0x20
	f.Add(corrupted)
	f.Add([]byte("not a provenance blob"))
	huge := append([]byte(provMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // absurd count
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeProvenance(data) // must not panic
		if err != nil {
			return
		}
		again := p.Encode()
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted input is not a fixed point:\n in: %x\nout: %x", data, again)
		}
	})
}
