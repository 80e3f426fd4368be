// Command bespoke is the tailoring flow's front door. It tailors the
// general purpose gate-level microcontroller to application binaries and
// reports the savings, runs the flow's formal gate, lints netlists, and
// runs the gate-level fault-injection campaigns.
//
// Usage:
//
//	bespoke tailor [-coarse] [-verilog out.v] [-def out.def] [-path] target...
//	bespoke tailor -check update.s target...
//	bespoke prove [-induct] [-k N] [-invariants] [-max-assumed N] [-json] target...
//	bespoke lint [-analyzer a,b] [-json] [-list] [target...]
//	bespoke lint -netlist out.v
//	bespoke faults [-faults N] [-seu N] [-set N] [-set-budget F] [-map] [target...]
//
// Every subcommand also takes -timeout, a wall-clock budget for the run;
// "bespoke SUBCOMMAND -h" lists its flags. A target is a Table 1
// benchmark name (internal/bench), "all" for the whole suite, "quick"
// for its five-benchmark smoke subset, or an MSP430 assembly file ending
// in .s (see internal/asm for the dialect). A benchmark runs under its
// catalog's first input set, a file under bench.RandomWorkload(1): random
// RAM, port and interrupt inputs, so a program that reads inputs signs
// off too. tailor and lint build one design that supports every target,
// prove and faults report one row per target. lint with no target lints
// the elaborated base core; faults with none runs "quick".
//
// The exit status is 0 when the run passes; 1 when a check rejects the
// design (a lint finding, a refuted claim or failed miter, more assumed
// claims than -max-assumed, a claimed-constant divergence, or a visible
// SET fraction over -set-budget); 2 on a usage, assembly, flow or timeout
// error; 3 when tailor -check finds that the update needs gates the
// bespoke design removed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runFunc runs a subcommand on its positional arguments.
type runFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// subcommands maps each subcommand to its setup, which registers its
// flags and returns the function that runs it once they are parsed.
var subcommands = map[string]func(fs *flag.FlagSet) runFunc{
	"tailor": tailorCmd,
	"prove":  proveCmd,
	"lint":   lintCmd,
	"faults": faultsCmd,
}

const usage = `usage: bespoke <tailor|prove|lint|faults> [flags] [target...]
A target is a benchmark name, "all", "quick" or an assembly file ending in .s;
"bespoke <subcommand> -h" lists the subcommand's flags.
`

// exitStatus ends a run with a nonzero status that is a verdict, not a
// failure: a check rejected the design (1), a target of a sweep failed
// and its row says why (2), or tailor -check found the update
// unsupported (3). A non-empty msg goes to stderr.
type exitStatus struct {
	code int
	msg  string
}

func (e *exitStatus) Error() string { return e.msg }

// run executes one command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	setup, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "bespoke: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	name := "bespoke " + args[0]
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
	exec := setup(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	err := exec(ctx, fs.Args(), stdout, stderr)
	var st *exitStatus
	switch {
	case err == nil:
		return 0
	case errors.As(err, &st):
		if st.msg != "" {
			fmt.Fprintf(stderr, "%s: %s\n", name, st.msg)
		}
		return st.code
	}
	printError(stderr, name, err)
	return 2
}

// printError prints a stage-aware diagnostic for a flow error: which
// pipeline stage failed, the offending gate when known, and the analysis
// watchdog's partial-progress numbers, instead of one opaque line.
func printError(w io.Writer, name string, err error) {
	var fe *core.FlowError
	if !errors.As(err, &fe) {
		fmt.Fprintf(w, "%s: %v\n", name, err)
		return
	}
	// Keep what a caller wrapped around the flow error, such as the
	// target it came from.
	where := strings.TrimSuffix(err.Error(), fe.Error())
	fmt.Fprintf(w, "%s: %sthe %s stage failed\n", name, where, fe.Stage)
	if fe.Gate != netlist.None {
		fmt.Fprintf(w, "%s:   at gate %d\n", name, fe.Gate)
	}
	timedOut := errors.Is(err, context.DeadlineExceeded)
	var le *symexec.LimitError
	switch {
	case errors.As(err, &le):
		fmt.Fprintf(w, "%s:   analysis watchdog: %s\n", name, le.Reason)
		fmt.Fprintf(w, "%s:   progress: %d cycles, %d paths, %d branch sites, %d merges, %d worlds pending\n",
			name, le.Cycles, le.Paths, le.Sites, le.Merges, le.Pending)
		if le.MaxCycles > 0 {
			fmt.Fprintf(w, "%s:   consider raising the cycle budget (had %d)\n", name, le.MaxCycles)
		}
	case !timedOut:
		fmt.Fprintf(w, "%s:   %v\n", name, fe.Err)
	}
	if timedOut {
		fmt.Fprintf(w, "%s:   the -timeout budget expired; raise it or simplify the program\n", name)
	}
}

// load resolves target arguments into benchmarks: a catalog name, "all",
// "quick", or an assembly file ending in .s. Every returned benchmark's
// program has assembled.
func load(args []string) ([]*bench.Benchmark, error) {
	var targets []*bench.Benchmark
	for _, arg := range args {
		switch {
		case arg == "all":
			targets = append(targets, bench.All()...)
		case arg == "quick":
			targets = append(targets, bench.Quick()...)
		case strings.HasSuffix(arg, ".s"):
			b, err := loadFile(arg)
			if err != nil {
				return nil, err
			}
			targets = append(targets, b)
		default:
			b := bench.ByName(arg)
			if b == nil {
				return nil, fmt.Errorf("unknown benchmark %q (see internal/bench; a file must end in .s)", arg)
			}
			targets = append(targets, b)
		}
	}
	return targets, nil
}

// loadFile assembles a source file into a benchmark named after its
// path, whose inputs come from bench.RandomWorkload.
func loadFile(path string) (*bench.Benchmark, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &bench.Benchmark{Name: path, Source: string(src), GenWorkload: bench.RandomWorkload}
	if _, err := b.Prog(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// tailorAll builds one bespoke design that supports every target, each
// run under its first input set.
func tailorAll(ctx context.Context, targets []*bench.Benchmark, opts core.Options) (*core.Result, error) {
	progs := make([]*asm.Program, len(targets))
	ws := make([]*core.Workload, len(targets))
	for i, b := range targets {
		progs[i], ws[i] = b.MustProg(), b.Workload(1)
	}
	return core.TailorMulti(ctx, progs, ws, opts)
}
