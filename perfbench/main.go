// Command perfbench times the bespoke flow end to end and, in a traced
// run, layer by layer. It builds and runs from the repository root:
//
//	bash perfbench/run.sh --workload tailor --seed 1 --seconds 10 --trace 0
//
// Each run sets its workload up several times, then runs timed passes of
// it for --seconds on one goroutine, checks every pass's outputs, and
// prints one JSON line of metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. End-to-end times are calibrated
// against a reference kernel timed beside the work (refclock.go). NOTES.md
// records what each workload and metric is for and how steady they are.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bespoke/internal/bitsim"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"pass_s", "s"}, {"alloc_mb", "MB"},
	{"bespoke_gates", "count"}, {"area_savings_pct", "%"},
	{"power_savings_pct", "%"}, {"power_savings_vmin_pct", "%"},
}

// perLayer are the metrics of a traced run (--trace 1). Layers a workload
// does not call read 0.
var perLayer = []metricDef{
	{"asm.time_s", "s"},
	{"cpu.build_s", "s"},
	{"symexec.time_s", "s"}, {"symexec.cycles", "count"}, {"symexec.paths", "count"},
	{"symexec.merges", "count"}, {"symexec.cycles_per_s", "1/s"},
	{"sim.time_s", "s"}, {"sim.runs", "count"}, {"sim.cycles", "count"}, {"sim.cycles_per_s", "1/s"},
	{"layout.time_s", "s"}, {"layout.calls", "count"},
	{"sta.time_s", "s"}, {"power.time_s", "s"}, {"lint.time_s", "s"},
	{"cut.time_s", "s"}, {"cut.cut_gates", "count"},
	{"synth.time_s", "s"}, {"synth.folded", "count"}, {"synth.dead", "count"},
	{"induct.spec_s", "s"}, {"induct.time_s", "s"}, {"induct.candidates", "count"},
	{"induct.dropped", "count"}, {"induct.invariants", "count"}, {"induct.core_claims", "count"},
	{"induct.rounds", "count"}, {"induct.queries", "count"}, {"induct.conflicts", "count"},
	{"induct.conflicts_per_s", "1/s"}, {"induct.k", "count"}, {"induct.budget_exhausted", "count"},
	{"induct.yield", "ratio"},
	{"equiv.env_s", "s"}, {"equiv.claims", "count"}, {"equiv.claims_s", "s"},
	{"equiv.proved_structural", "count"}, {"equiv.proved_sat", "count"}, {"equiv.proved_induct", "count"},
	{"equiv.assumed", "count"}, {"equiv.sat_queries", "count"},
	{"equiv.miter_s", "s"}, {"equiv.miter_obligations", "count"},
	{"faultinject.stuck_claimed_s", "s"}, {"faultinject.stuck_opposite_s", "s"},
	{"faultinject.seu_s", "s"}, {"faultinject.set_s", "s"}, {"faultinject.golden_s", "s"},
	{"faultinject.injections", "count"}, {"faultinject.batches", "count"}, {"faultinject.lane_fill", "ratio"},
	{"faultinject.masked", "count"}, {"faultinject.latched", "count"},
	{"faultinject.sdc", "count"}, {"faultinject.hang", "count"}, {"faultinject.hung_batches", "count"},
	{"faultinject.visible_pct", "%"},
	{"bitsim.time_s", "s"}, {"bitsim.inj_per_s", "1/s"},
	{"core.self_s", "s"},
	{"asm.alloc_mb", "MB"}, {"cpu.alloc_mb", "MB"}, {"symexec.alloc_mb", "MB"}, {"sim.alloc_mb", "MB"},
	{"layout.alloc_mb", "MB"}, {"sta.alloc_mb", "MB"}, {"power.alloc_mb", "MB"}, {"lint.alloc_mb", "MB"},
	{"cut.alloc_mb", "MB"}, {"synth.alloc_mb", "MB"}, {"induct.alloc_mb", "MB"}, {"equiv.alloc_mb", "MB"},
	{"faultinject.alloc_mb", "MB"}, {"core.alloc_mb", "MB"},
	{"trace.pass_s", "s"}, {"trace.overhead_s", "s"}, {"trace.spans", "count"},
	{"host.wall_pass_s", "s"}, {"host.speed", "ratio"},
}

const (
	// setupRepeats is how often a run sets its workload up; setup_s is
	// the median.
	setupRepeats = 5
	// allocBound is alloc_mb's bound in BENCHMARK.json: every pass of a
	// run must allocate within this share of the run's median.
	allocBound = 0.05
	// runLimit bounds a whole run; no pass starts that would likely end
	// after passLimit.
	runLimit  = 170 * time.Second
	passLimit = 150 * time.Second
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tailor, prove or faults")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "how long the timed passes run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload tailor|prove|faults, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	runtime.GOMAXPROCS(1)
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	res, err := measure(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// meter runs passes and keeps their tallies.
type meter struct {
	inst      instance
	log       io.Writer
	clock     *refClock // calibrates untraced passes; nil leaves them uncalibrated
	ref       *outcome  // the first untraced pass, which every later pass must match
	times     []float64 // untraced pass wall times, less the reference kernel's runs
	cal       []float64 // the same passes at the reference speed
	allocs    []float64
	attempted int
	failed    int
}

// pass runs one pass, timed from the pass's start to its end with the
// output checks after it, and tallies its operations. A traced pass
// (r != nil) runs inside a root span and is not added to the untraced
// statistics.
func (m *meter) pass(ctx context.Context, r *recorder) time.Duration {
	runtime.GC()
	a0 := heapAllocated()
	t0 := time.Now()
	root := r.begin("pass", "core.self_s")
	o := m.inst.pass(ctx, r)
	r.end(root)
	d := time.Since(t0)
	alloc := float64(heapAllocated() - a0)
	o.verify(ctx)
	label := "pass"
	cal := d.Seconds()
	if r != nil {
		label = "traced pass"
		d = time.Duration(r.spans[root].EndNs - r.spans[root].StartNs)
	} else {
		wall := cal
		if m.clock != nil {
			var err error
			if cal, wall, err = m.clock.calibrate(t0, t0.Add(d)); err != nil {
				m.failed++
				fmt.Fprintf(m.log, "pass: FAILED: %v\n", err)
			}
		}
		m.times = append(m.times, wall)
		m.cal = append(m.cal, cal)
		m.allocs = append(m.allocs, alloc)
	}
	for i := range o.ops {
		p := &o.ops[i]
		m.attempted++
		if p.err == nil && m.ref != nil {
			p.err = sameAs(m.ref.ops[i], *p)
		}
		if p.err != nil {
			m.failed++
			fmt.Fprintf(m.log, "%s %s: FAILED: %v\n", label, p.name, p.err)
		}
	}
	if m.ref == nil && r == nil {
		m.ref = o
	}
	fmt.Fprintf(m.log, "%s: %.3f s (%.3f s calibrated), %.1f MB, %d operations\n", label, d.Seconds(), cal, alloc/1e6, len(o.ops))
	return d
}

// more reports whether another pass as long as the last one would end
// within budget seconds of passStart, and before passLimit.
func more(start, passStart time.Time, budget float64, last time.Duration) bool {
	return (time.Since(passStart)+last).Seconds() <= budget && time.Since(start)+last*5/4 < passLimit
}

func measure(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	start := time.Now()
	clock := startRefClock()
	defer clock.halt()
	var inst instance
	var setupRec *recorder
	var setupStarts, setupEnds []time.Time
	for i := 0; i < setupRepeats; i++ {
		var r *recorder
		if cfg.trace && i == setupRepeats-1 {
			r = newRecorder(cfg.workload, -1)
			setupRec = r
		}
		setupStarts = append(setupStarts, time.Now())
		var err error
		if inst, err = workloads[cfg.workload](ctx, cfg.seed, r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupEnds = append(setupEnds, time.Now())
	}
	var setups, setupWalls []float64
	for i := range setupStarts {
		cal, wall, err := clock.calibrate(setupStarts[i], setupEnds[i])
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups, setupWalls = append(setups, cal), append(setupWalls, wall)
	}
	fmt.Fprintf(log, "set-up: %.3f s, calibrated %.3f s\n", setupWalls, setups)

	m := &meter{inst: inst, log: log, clock: clock}
	passStart := time.Now()
	untraced := cfg.seconds
	if cfg.trace {
		untraced /= 2
	}
	for last := time.Duration(0); len(m.times) == 0 || more(start, passStart, untraced, last); {
		last = m.pass(ctx, nil)
	}
	speed := clock.speed()
	fmt.Fprintf(log, "%d passes: median %.3f s, calibrated %.3f s; host at %.2f of the reference speed\n",
		len(m.times), median(m.times), median(m.cal), speed)
	// Every pass of a run allocates alike; a pass outside the bound is a
	// failure, not noise to average away.
	medAlloc := median(m.allocs)
	for i, a := range m.allocs {
		if math.Abs(a-medAlloc) > allocBound*medAlloc {
			m.failed++
			fmt.Fprintf(log, "pass %d: FAILED: allocated %.1f MB, run median %.1f MB\n", i, a/1e6, medAlloc/1e6)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	values := map[string]float64{}
	if !cfg.trace {
		values["setup_s"] = median(setups)
		values["pass_s"] = median(m.cal)
		values["alloc_mb"] = medAlloc / 1e6
		for k, v := range inst.quality() {
			values[k] = v
		}
		fill(res, endToEnd, values)
	} else {
		// Traced passes are timed raw, without the kernel cutting into
		// their spans.
		clock.halt()
		var recs []*recorder
		var durs []time.Duration
		for last := time.Duration(0); len(recs) == 0 || more(start, passStart, cfg.seconds, last); {
			r := newRecorder(cfg.workload, len(recs))
			last = m.pass(ctx, r)
			recs = append(recs, r)
			durs = append(durs, last)
		}
		// Report the traced pass of median duration.
		order := make([]int, len(recs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return durs[order[a]] < durs[order[b]] })
		pick := order[(len(order)-1)/2]
		values, err := layerMetrics(setupRec, recs[pick], median(m.times))
		if err != nil {
			m.failed++
			fmt.Fprintln(log, "traced pass: FAILED:", err)
		}
		values["host.wall_pass_s"] = median(m.times)
		values["host.speed"] = speed
		fill(res, perLayer, values)
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(spans, append([]*recorder{setupRec}, recs...)...); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	res.Correct = m.failed == 0
	return res, nil
}

// layerMetrics derives the per-layer metrics from one traced pass and the
// traced set-up; untracedPass is the run's median untraced pass time.
func layerMetrics(setup, pass *recorder, untracedPass float64) (map[string]float64, error) {
	times, rootNs, err := pass.layerTimes()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range times {
		out[k] = v
	}
	for k, v := range pass.layerAllocs() {
		out[k] = v
	}
	for k, v := range pass.counts {
		out[k] = v
	}
	setupTimes, _, err := setup.layerTimes()
	if err != nil {
		return nil, err
	}
	out["asm.time_s"] = setupTimes["asm.time_s"]
	out["asm.alloc_mb"] = setup.layerAllocs()["asm.alloc_mb"]

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["symexec.cycles_per_s"] = ratio(out["symexec.cycles"], out["symexec.time_s"])
	out["sim.cycles_per_s"] = ratio(out["sim.cycles"], out["sim.time_s"])
	out["induct.conflicts_per_s"] = ratio(out["induct.conflicts"], out["induct.time_s"])
	out["induct.yield"] = ratio(out["induct.invariants"]+out["induct.core_claims"], out["induct.candidates"])
	out["faultinject.lane_fill"] = ratio(out["faultinject.injections"], (bitsim.Lanes-1)*out["faultinject.batches"])
	out["faultinject.visible_pct"] = 100 * ratio(out["faultinject.bespoke_visible"], out["faultinject.bespoke_injections"])
	out["bitsim.inj_per_s"] = ratio(out["faultinject.injections"], out["bitsim.time_s"])
	out["trace.pass_s"] = float64(rootNs) / 1e9
	out["trace.overhead_s"] = out["trace.pass_s"] - untracedPass
	out["trace.spans"] = float64(len(pass.spans))
	return out, nil
}

// fill copies the named metrics into the result; a metric the run did not
// produce reads 0.
func fill(res *result, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
