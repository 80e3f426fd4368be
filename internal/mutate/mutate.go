// Package mutate is the flow's Milu substitute (Tables 4 and 5, Figure
// 14): it generates the paper's three mutant classes from a benchmark's
// assembly source - the level a C-source mutation lands at after
// compilation - and checks which mutants an unmodified bespoke design
// already supports (the mutant's exercisable gates are a subset of the
// design's gates).
//
//	Type I   - conditional-operator mutants: flipped forward branches
//	Type II  - computation-operator mutants: add<->sub, and<->bis, ...
//	Type III - loop-conditional mutants: flipped backward branches
package mutate

import (
	"context"
	"fmt"
	"strings"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/logic"
	"bespoke/internal/parallel"
	"bespoke/internal/symexec"
)

// Type classifies a mutant per the paper's Table 4.
type Type int

// Mutant classes.
const (
	TypeI Type = iota + 1
	TypeII
	TypeIII
)

// String returns "I"/"II"/"III".
func (t Type) String() string { return [...]string{"?", "I", "II", "III"}[t] }

// Mutant is one single-operator program mutation.
type Mutant struct {
	Type Type
	// Line is the 1-based source line mutated.
	Line int
	// Desc is "jne -> jeq" style.
	Desc string
	// Source is the mutated program text.
	Source string
}

// Prog assembles the mutant.
func (m *Mutant) Prog() (*asm.Program, error) { return asm.Assemble(m.Source) }

// condSwap maps each conditional mnemonic to its Milu-style replacement.
var condSwap = map[string]string{
	"jne": "jeq", "jnz": "jz", "jeq": "jne", "jz": "jnz",
	"jlo": "jhs", "jnc": "jc", "jhs": "jlo", "jc": "jnc",
	"jge": "jl", "jl": "jge", "jn": "jge",
}

// opSwap maps computation mnemonics to their replacement.
var opSwap = map[string]string{
	"add": "sub", "sub": "add", "addc": "subc", "subc": "addc",
	"and": "bis", "bis": "and", "xor": "bis",
	"inc": "dec", "dec": "inc", "incd": "decd", "decd": "incd",
	"rla": "rra", "rra": "rla",
}

// Generate produces every single-site mutant of the benchmark that still
// assembles. Branch mutants are classified as Type III when the branch
// target precedes the branch (a loop back-edge) and Type I otherwise.
func Generate(b *bench.Benchmark) ([]*Mutant, error) {
	p, err := b.Prog()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(b.Source, "\n")

	// Loop back-edges: conditional jumps whose target is behind them.
	backEdge := map[int]bool{} // source line -> true
	for addr, in := range p.Insts {
		if in.Op.IsJump() {
			target := int32(addr) + 2 + 2*int32(in.Offset)
			if target <= int32(addr) {
				backEdge[p.LineOf[addr]] = true
			}
		}
	}

	var muts []*Mutant
	for li, raw := range lines {
		line := raw
		if j := strings.IndexByte(line, ';'); j >= 0 {
			line = line[:j]
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		// Strip a label prefix.
		body := trimmed
		if j := strings.IndexByte(body, ':'); j >= 0 {
			body = strings.TrimSpace(body[j+1:])
		}
		fields := strings.Fields(body)
		if len(fields) == 0 {
			continue
		}
		mnem := strings.ToLower(fields[0])
		base := strings.TrimSuffix(mnem, ".b")

		try := func(repl string, ty Type) {
			newMnem := repl
			if strings.HasSuffix(mnem, ".b") {
				newMnem += ".b"
			}
			idx := strings.Index(raw, fields[0])
			if idx < 0 {
				return
			}
			mutLine := raw[:idx] + newMnem + raw[idx+len(fields[0]):]
			src := strings.Join(append(append([]string{}, lines[:li]...), append([]string{mutLine}, lines[li+1:]...)...), "\n")
			if _, err := asm.Assemble(src); err != nil {
				return
			}
			muts = append(muts, &Mutant{
				Type: ty, Line: li + 1,
				Desc:   fmt.Sprintf("%s -> %s", mnem, newMnem),
				Source: src,
			})
		}

		if repl, ok := condSwap[base]; ok {
			ty := TypeI
			if backEdge[li+1] {
				ty = TypeIII
			}
			try(repl, ty)
		} else if repl, ok := opSwap[base]; ok {
			try(repl, TypeII)
		}
	}
	return muts, nil
}

// CountByType tallies mutants per class (Table 4).
func CountByType(muts []*Mutant) map[Type]int {
	out := map[Type]int{}
	for _, m := range muts {
		out[m.Type]++
	}
	return out
}

// SupportResult reports mutant-support checking for one benchmark.
type SupportResult struct {
	Total, Supported  int
	ByType            map[Type]int
	SupportedByType   map[Type]int
	AnalysisFailures  int
	MutantsAnalyzable int
	// Union is the combined analysis over the application and every
	// analyzable mutant, suitable for cutting a mutant-supporting
	// bespoke design (Figure 14).
	Union *symexec.Result
	// Cosim holds the dynamic verification phase's report when
	// Options.Cosim was set (nil otherwise).
	Cosim *CosimReport
}

// CheckSupport analyzes every mutant and reports which are supported by
// the unmodified bespoke design for the base application: a mutant is
// supported when every gate it can toggle is kept in the design. Mutants
// whose analysis does not terminate within the cycle budget (e.g. a
// mutation created an unbounded loop) count as unsupported.
//
// The per-mutant analyses are independent and fan out across the shared
// worker pool; the union and the support tallies are merged sequentially
// in mutant order afterwards, so the result is deterministic. The context
// cancels the whole campaign.
//
// When opts.Cosim is set, a third phase executes every assemblable
// mutant concretely on the given design — 64 mutant images packed into
// the lanes of one bit-parallel simulator instance per pass — and
// cross-checks each against its own golden ISA run, confirming the
// static verdicts dynamically (see CosimReport).
func CheckSupport(ctx context.Context, b *bench.Benchmark, app *symexec.Result, muts []*Mutant, opts Options) (*SupportResult, error) {
	union := &symexec.Result{
		Toggled:  append([]bool(nil), app.Toggled...),
		ConstVal: append([]logic.V(nil), app.ConstVal...),
	}
	res := &SupportResult{
		Total:           len(muts),
		ByType:          CountByType(muts),
		SupportedByType: map[Type]int{},
		Union:           union,
	}
	// Phase 1, parallel: one analysis per mutant. A nil entry means the
	// mutant failed to assemble or its analysis failed (a limit, or a
	// panic core.Analyze recovered); both count as unsupported. Those
	// errors stay per-mutant verdicts, but a cancelled context aborts the
	// campaign.
	analyses := make([]*symexec.Result, len(muts))
	err := parallel.ForEach(ctx, 0, len(muts), func(i int) error {
		p, err := muts[i].Prog()
		if err != nil {
			return nil
		}
		mres, _, err := core.Analyze(ctx, p, symexec.Options{MaxCycles: mutantCycles})
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return nil
		}
		analyses[i] = mres
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mutate: campaign aborted: %w", err)
	}
	// Phase 2, sequential: merge in mutant order.
	supported := make([]bool, len(muts))
	for i, m := range muts {
		mres := analyses[i]
		if mres == nil {
			res.AnalysisFailures++
			continue
		}
		res.MutantsAnalyzable++
		supported[i] = len(app.Missing(mres)) == 0
		union.Merge(mres)
		if supported[i] {
			res.Supported++
			res.SupportedByType[m.Type]++
		}
	}
	// Phase 3, optional: confirm the static verdicts by running the
	// mutants on the design, 64 per bit-parallel pass.
	if opts.Cosim != nil {
		cr, err := cosimVerify(ctx, muts, supported, opts.Cosim)
		if err != nil {
			return nil, err
		}
		res.Cosim = cr
	}
	return res, nil
}
