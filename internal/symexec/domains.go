package symexec

import (
	"fmt"

	"bespoke/internal/logic"
)

// CompareDomains cross-checks the dynamically recorded bus domains
// against proved over-approximations of the same buses. Every recorded
// cube is a witnessed reachable state, so a SOUND proved domain must
// account for it: a fully-known recorded cube must be covered by some
// cube of each proved domain with the same name, and an X-bearing
// recorded cube (a merged observation) must at least be compatible with
// one. Several proved domains may share a bus name (an exact value set,
// a stuck-bit cube, an interval cover); each is checked independently.
// Buses with no recorded counterpart, and recorded domains that
// overflowed (Exceeded), constrain nothing and are skipped.
//
// The return value lists human-readable discrepancies; an empty list
// means the dynamic record and the proved invariants agree. A non-empty
// list is a soundness tripwire: either the proof engine or the dynamic
// recorder is wrong, and the caller should fail loudly rather than trust
// the proofs.
func CompareDomains(recorded, proved []BusDomain) []string {
	recByName := make(map[string]*BusDomain, len(recorded))
	for i := range recorded {
		recByName[recorded[i].Name] = &recorded[i]
	}
	var diffs []string
	for i := range proved {
		p := &proved[i]
		rec := recByName[p.Name]
		if rec == nil || rec.Exceeded || p.Exceeded {
			continue
		}
		for _, rw := range rec.Words {
			matched := false
			for _, pw := range p.Words {
				if rw.Mask == 0 {
					if pw.Covers(rw) {
						matched = true
						break
					}
				} else if compatible(pw, rw) {
					matched = true
					break
				}
			}
			if !matched {
				diffs = append(diffs, fmt.Sprintf(
					"bus %s: recorded value %s escapes the proved domain (%d cubes)",
					p.Name, rw, len(p.Words)))
			}
		}
	}
	return diffs
}

// compatible reports that some concrete value matches both cubes.
func compatible(a, b logic.Word) bool {
	known := ^(a.Mask | b.Mask)
	return (a.Val^b.Val)&known == 0
}

// mergeDomains unions per-bus value sets across programs. The union of
// over-approximations is an over-approximation of every program's
// reachable set, so proofs under the merged domain stay sound for each
// individual program.
func mergeDomains(a, b []BusDomain) []BusDomain {
	if len(a) == 0 {
		return b
	}
	byName := make(map[string]int, len(a))
	for i := range a {
		byName[a[i].Name] = i
	}
	for _, d := range b {
		i, ok := byName[d.Name]
		if !ok {
			a = append(a, d)
			byName[d.Name] = len(a) - 1
			continue
		}
		m := &a[i]
		if d.Exceeded {
			m.Exceeded = true
		}
		if m.Exceeded {
			m.Words = nil
			continue
		}
		seen := make(map[uint32]struct{}, len(m.Words))
		for _, w := range m.Words {
			seen[uint32(w.Val)|uint32(w.Mask)<<16] = struct{}{}
		}
		for _, w := range d.Words {
			key := uint32(w.Val) | uint32(w.Mask)<<16
			if _, dup := seen[key]; dup {
				continue
			}
			if len(m.Words) >= MaxDomainWords {
				m.Exceeded = true
				m.Words = nil
				break
			}
			seen[key] = struct{}{}
			m.Words = append(m.Words, w)
		}
	}
	return a
}
