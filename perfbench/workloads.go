package main

import (
	"context"
	"fmt"
	"hash/fnv"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/bitsim"
	"bespoke/internal/core"
	"bespoke/internal/faultinject"
	"bespoke/internal/isasim"
)

// op is one operation of a pass: one program's flow (tailor, prove) or
// one campaign (faults).
type op struct {
	name string
	// summary spells out every deterministic number the operation
	// produced; it must read the same in every pass of a run.
	summary string
	err     error
}

// outcome is what one pass produced.
type outcome struct {
	ops []op
	// verify runs outside the timed region: it fills in the summaries and
	// runs the output checks, recording failures on ops.
	verify func(ctx context.Context)
}

// instance is a set-up workload: its inputs are generated and its
// designs tailored, ready for timed passes.
type instance interface {
	// pass runs one pass; r records spans and counts when non-nil.
	pass(ctx context.Context, r *recorder) *outcome
	// quality returns the end-to-end quality metrics of the designs the
	// workload produces or strikes. They are deterministic for a seed.
	quality() map[string]float64
}

// workload builds an instance from the seed; r, when non-nil, records the
// set-up's layer calls.
type workload func(ctx context.Context, seed uint64, r *recorder) (instance, error)

var workloads = map[string]workload{
	"tailor": setupTailor,
	"prove":  setupProve,
	"faults": setupFaults,
}

// program is one catalog program with its seeded inputs.
type program struct {
	name   string
	prog   *asm.Program
	w      *core.Workload
	golden []uint16 // the ISA model's output stream on w
}

// loadPrograms assembles the benchmarks and generates their inputs from
// the seed; with golden set it also runs each on the ISA model.
func loadPrograms(r *recorder, benches []*bench.Benchmark, seed uint64, golden bool) ([]*program, error) {
	out := make([]*program, 0, len(benches))
	for _, b := range benches {
		p, err := callErr(r, "asm.Assemble", "asm.time_s", func() (*asm.Program, error) { return asm.Assemble(b.Source) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		pr := &program{name: b.Name, prog: p, w: b.Workload(seed)}
		if golden {
			m := isasim.New(p.Bytes, p.Origin)
			if err := bench.RunISAWorkload(m, pr.w); err != nil {
				return nil, fmt.Errorf("%s: ISA golden run: %w", b.Name, err)
			}
			pr.golden = m.Out
		}
		out = append(out, pr)
	}
	return out, nil
}

// warmUp tailors a program outside every timed set, so the first timed
// pass does not pay for a cold runtime.
func warmUp(ctx context.Context, seed uint64) (*core.Result, *program, error) {
	b := bench.Extras()[0]
	progs, err := loadPrograms(nil, []*bench.Benchmark{b}, seed, false)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Tailor(ctx, progs[0].prog, progs[0].w, core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up %s: %w", b.Name, err)
	}
	return res, progs[0], nil
}

// designQuality is the end-to-end quality of a set of tailored designs:
// their summed bespoke gates and mean savings in percent.
func designQuality(results []*core.Result) map[string]float64 {
	q := map[string]float64{}
	for _, res := range results {
		q["bespoke_gates"] += float64(res.Bespoke.Gates)
		q["area_savings_pct"] += 100 * res.AreaSavings / float64(len(results))
		q["power_savings_pct"] += 100 * res.PowerSavings / float64(len(results))
		q["power_savings_vmin_pct"] += 100 * res.PowerSavingsVmin / float64(len(results))
	}
	return q
}

// flow is the tailor and prove workloads: one tailoring flow per program.
type flow struct {
	progs []*program
	opts  core.Options
	// check validates one program's result outside the timed region.
	check   func(ctx context.Context, p *program, res *core.Result) error
	results []*core.Result // the latest pass's results, for quality
}

// tailor: core.Tailor with zero options over the 15 Table 1 programs, in
// catalog order. The seed changes only the RAM and port inputs of the
// signoff runs.
func setupTailor(ctx context.Context, seed uint64, r *recorder) (instance, error) {
	progs, err := loadPrograms(r, bench.All(), seed, true)
	if err != nil {
		return nil, err
	}
	if _, _, err := warmUp(ctx, seed); err != nil {
		return nil, err
	}
	return &flow{progs: progs, check: func(ctx context.Context, p *program, res *core.Result) error {
		return checkOutputs(ctx, res, p.prog, p.w, p.golden)
	}}, nil
}

// prove: core.Tailor with Options.Induct on mult. The seed changes only
// the signoff run's inputs; the proof is input-independent.
func setupProve(ctx context.Context, seed uint64, r *recorder) (instance, error) {
	progs, err := loadPrograms(r, []*bench.Benchmark{bench.Mult()}, seed, false)
	if err != nil {
		return nil, err
	}
	if _, _, err := warmUp(ctx, seed); err != nil {
		return nil, err
	}
	return &flow{progs: progs, opts: core.Options{Induct: true}, check: func(_ context.Context, _ *program, res *core.Result) error {
		return checkProof(res)
	}}, nil
}

func (f *flow) pass(ctx context.Context, r *recorder) *outcome {
	o := &outcome{ops: make([]op, len(f.progs))}
	results := make([]*core.Result, len(f.progs))
	for i, p := range f.progs {
		o.ops[i].name = p.name
		if r == nil {
			results[i], o.ops[i].err = core.Tailor(ctx, p.prog, p.w, f.opts)
			continue
		}
		r.program = p.name
		id := r.begin("program", "core.self_s")
		results[i], o.ops[i].err = replayTailor(ctx, r, p.prog, p.w, f.opts)
		r.end(id)
		r.program = ""
	}
	o.verify = func(ctx context.Context) {
		for i, p := range f.progs {
			if o.ops[i].err != nil {
				continue
			}
			o.ops[i].summary = fmt.Sprintf("%+v", summarize(results[i]))
			o.ops[i].err = f.check(ctx, p, results[i])
		}
		f.results = results
	}
	return o
}

func (f *flow) quality() map[string]float64 {
	for _, res := range f.results {
		if res == nil {
			return nil
		}
	}
	return designQuality(f.results)
}

const (
	// campaignFaults is the injection count of every campaign: one
	// 63-lane batch, so a pass is short enough to repeat many times in a
	// run.
	campaignFaults = bitsim.Lanes - 1
	// samplingSeed seeds every campaign's fault sample. It is fixed: with
	// the sample drawn from the benchmark seed, a pass's gate evaluations
	// varied by 12% between seeds (interquartile range over seeds 1-10),
	// against 2% when only the programs' inputs vary.
	samplingSeed = 1
	// irqSeed fixes irq's interrupt schedule, irq's only input. Under
	// the schedules of seeds 7, 8, 10, 11, 14, 15 and 16 of 1-20, one
	// strike on the bespoke design leaves a lane's PC partially unknown,
	// and that X-poisoned lane's per-lane memory fallback makes its
	// campaign cost six to nine times a clean one, a quarter of a pass.
	// Seed 7's schedule measures that path in every pass rather than at a
	// third of the seeds.
	irqSeed = 7
)

// design is one program tailored in set-up for the fault campaigns.
type design struct {
	*program
	res *core.Result
}

// faults: stuck-at cut validation with claimed and opposite constants on
// the baseline, then SEU and SET campaigns on the baseline and the
// bespoke design, for binSearch, mult and irq. The seed changes
// binSearch's and mult's inputs, and with them the golden runs the
// injections are judged against; irq's schedule and the fault sample
// are fixed.
type faults struct {
	designs []design
	opts    faultinject.Options
}

func setupFaults(ctx context.Context, seed uint64, r *recorder) (instance, error) {
	progs, err := loadPrograms(r, []*bench.Benchmark{bench.BinSearch(), bench.Mult()}, seed, false)
	if err != nil {
		return nil, err
	}
	irq, err := loadPrograms(r, []*bench.Benchmark{bench.IRQ()}, irqSeed, false)
	if err != nil {
		return nil, err
	}
	progs = append(progs, irq...)
	f := &faults{opts: faultinject.Options{Workers: 1, MaxFaults: campaignFaults, Seed: samplingSeed}}
	for _, p := range progs {
		res, err := core.Tailor(ctx, p.prog, p.w, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		f.designs = append(f.designs, design{program: p, res: res})
	}
	res, p, err := warmUp(ctx, seed)
	if err != nil {
		return nil, err
	}
	if _, err := faultinject.SEUCampaign(ctx, res.BespokeCore, p.prog, p.w, campaignFaults, f.opts); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return f, nil
}

// campaign is one campaign of the faults pass.
type campaign struct {
	kind    string // metric stem: stuck_claimed, stuck_opposite, seu, set
	bespoke bool   // strikes the bespoke design rather than the baseline
}

var campaigns = []campaign{
	{kind: "stuck_claimed"}, {kind: "stuck_opposite"},
	{kind: "seu"}, {kind: "seu", bespoke: true},
	{kind: "set"}, {kind: "set", bespoke: true},
}

func (c campaign) run(ctx context.Context, d design, opts faultinject.Options) (*faultinject.Report, error) {
	target := d.res.BaselineCore
	if c.bespoke {
		target = d.res.BespokeCore
	}
	switch c.kind {
	case "stuck_claimed":
		return faultinject.StuckAtClaimed(ctx, target, d.prog, d.w, d.res.Analysis, opts)
	case "stuck_opposite":
		return faultinject.StuckAtOpposite(ctx, target, d.prog, d.w, d.res.Analysis, opts)
	case "seu":
		return faultinject.SEUCampaign(ctx, target, d.prog, d.w, campaignFaults, opts)
	}
	return faultinject.SETCampaign(ctx, target, d.prog, d.w, campaignFaults, opts)
}

func (c campaign) String() string {
	if c.bespoke {
		return c.kind + "/bespoke"
	}
	return c.kind + "/baseline"
}

func (f *faults) pass(ctx context.Context, r *recorder) *outcome {
	o := &outcome{}
	var reports []*faultinject.Report // per op; nil where the campaign failed
	var kinds []campaign
	for _, d := range f.designs {
		if r != nil {
			r.program = d.name
		}
		for _, c := range campaigns {
			id := r.beginTotal("faultinject."+c.kind, "faultinject.golden_s", "faultinject."+c.kind+"_s")
			rep, err := c.run(ctx, d, f.opts)
			r.end(id)
			o.ops = append(o.ops, op{name: d.name + "/" + c.String(), err: err})
			reports, kinds = append(reports, rep), append(kinds, c)
			if err != nil {
				continue
			}
			r.child(id, "bitsim.campaign", "bitsim.time_s", rep.Elapsed)
			r.add("faultinject.injections", float64(rep.Injected))
			r.add("faultinject.batches", float64(rep.Batches))
			r.add("faultinject.masked", float64(rep.Masked))
			r.add("faultinject.latched", float64(rep.Latched))
			r.add("faultinject.sdc", float64(rep.SDCs))
			r.add("faultinject.hang", float64(rep.Hangs))
			r.add("faultinject.hung_batches", float64(hungBatches(rep)))
			if c.bespoke {
				r.add("faultinject.bespoke_injections", float64(rep.Injected))
				r.add("faultinject.bespoke_visible", float64(rep.Divergent()))
			}
		}
	}
	if r != nil {
		r.program = ""
	}
	o.verify = func(context.Context) {
		for i, rep := range reports {
			if o.ops[i].err != nil {
				continue
			}
			o.ops[i].summary = reportSummary(rep)
			if kinds[i].kind == "stuck_claimed" {
				o.ops[i].err = checkClaimed(rep)
			}
		}
	}
	return o
}

// hungBatches counts the campaign's batches with at least one hung lane:
// such a batch runs to the cycle bound (twice the golden run) instead of
// retiring when its last lane halts. Batches are consecutive runs of 63
// injections in injection order.
func hungBatches(rep *faultinject.Report) int {
	n := 0
	for lo := 0; lo < len(rep.Results); lo += bitsim.Lanes - 1 {
		for _, res := range rep.Results[lo:min(lo+bitsim.Lanes-1, len(rep.Results))] {
			if res.Outcome == faultinject.Hang {
				n++
				break
			}
		}
	}
	return n
}

// reportSummary spells out a campaign's tallies plus a hash of every
// injection's fault and outcome.
func reportSummary(rep *faultinject.Report) string {
	h := fnv.New64a()
	for _, res := range rep.Results {
		fmt.Fprintf(h, "%v:%d;", res.Fault, res.Outcome)
	}
	return fmt.Sprintf("sites=%d injected=%d masked=%d latched=%d sdc=%d hang=%d batches=%d results=%x",
		rep.Sites, rep.Injected, rep.Masked, rep.Latched, rep.SDCs, rep.Hangs, rep.Batches, h.Sum64())
}

func (f *faults) quality() map[string]float64 {
	results := make([]*core.Result, len(f.designs))
	for i, d := range f.designs {
		results[i] = d.res
	}
	return designQuality(results)
}
