// Command figures regenerates the paper's evaluation figures end to end:
//
//	figures -fig 1            register-file AVF (FI + ACE + occupancy)
//	figures -fig 2            local-memory AVF (7 shared-memory benchmarks)
//	figures -fig 3            EPF (executions per failure, both structures)
//	figures -fig all          everything
//
// Each figure is its canned experiment spec (experiment.Figure), with
// -chips and -bench as the grid axes and -seed as the spec seed. Any
// other declarative experiment spec runs the same way:
//
//	figures -spec sweep.json                 run a spec locally
//	figures -spec sweep.json -n 100          ...with a reduced budget
//	figures -spec sweep.json -server http://host:8080
//	                                         ...on a fiserver, streamed
//
// A figure run and the run of the equivalent spec file are the same code
// path and print byte-identical output: one experiment document per
// spec, as tables or (with -json) as JSON.
//
// Useful knobs: -n (injections per campaign; the paper uses 2000, and it
// becomes the cap when -margin is set), -margin/-confidence (adaptive
// sampling: stop each campaign once its AVF interval is tight enough),
// -checkpoint (fast-forward injections through golden snapshots: auto,
// off, or a cycle interval; results are byte-identical either way),
// -workers, -seed, -bench (comma-separated subset), -chips
// (comma-separated subset), -store (persistent result cache; warm reruns
// perform zero injections).
//
// All figures of one invocation share a campaign scheduler, so Fig. 3
// reuses every cell Figs. 1 and 2 already measured.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/report"
)

// errUsage marks argument errors the FlagSet has already reported on
// stderr; main exits non-zero without printing them again.
var errUsage = errors.New("usage error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is main's testable core: it parses args, runs the requested
// figures and writes tables (or JSON) to stdout and progress notes to
// stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig       = fs.String("fig", "all", "figure to regenerate: 1, 2, 3 or all")
		seed      = fs.Uint64("seed", 1, "campaign seed")
		benches   = fs.String("bench", "", "comma-separated benchmark subset (default: figure-appropriate suite)")
		chipSel   = fs.String("chips", "", "comma-separated chip subset (default: the paper's four)")
		storePath = fs.String("store", "", "result store path (in-memory only when empty)")
		ladderDir = fs.String("ladder-dir", "", "directory for persisted checkpoint ladders, shared read-only (mmap) across processes")
		asJSON    = fs.Bool("json", false, "emit figures as JSON instead of tables")
		specPath  = fs.String("spec", "", "run this experiment spec (JSON) instead of a canned figure")
		serverURL = fs.String("server", "", "with -spec: run on this fiserver (POST /v1/experiments) instead of locally")
	)
	pf := cli.AddPolicyFlags(fs)
	obs := cli.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already reported the problem on stderr.
		return errUsage
	}
	// Tables and JSON go to stdout; progress is structured logging on
	// stderr, so piped output stays parseable.
	log, closeTrace := obs.Init(stderr, slog.LevelDebug)
	defer func() {
		if terr := closeTrace(); terr != nil {
			fmt.Fprintf(stderr, "figures: %v\n", terr)
		}
	}()

	if err := pf.Validate(); err != nil {
		return err
	}
	if *ladderDir != "" {
		if err := os.MkdirAll(*ladderDir, 0o755); err != nil {
			return fmt.Errorf("-ladder-dir: %w", err)
		}
		finject.SetLadderDir(*ladderDir)
	}

	if *specPath == "" && *serverURL != "" {
		return errors.New("-server needs -spec (the canned figures run locally)")
	}
	if *serverURL != "" && (*storePath != "" || pf.Workers != 0) {
		return errors.New("-store and -workers are local-only: with -server the fiserver owns its store and worker pool")
	}
	runs, err := plannedRuns(fs, pf, *specPath, *fig, *seed, *chipSel, *benches)
	if err != nil {
		return err
	}
	return execute(ctx, runs, *serverURL, *storePath, pf.Workers, *asJSON, stdout, log)
}

// namedRun is one spec to run, with the phase name its wall time is
// reported under.
type namedRun struct {
	phase string
	spec  experiment.Spec
}

// plannedRuns builds the specs of one invocation: the -spec file, or the
// canned spec of every figure -fig selects with -chips/-bench as its axes
// and -seed as its seed. Explicitly set policy flags and -seed override
// either, so CI and quick local runs can shrink a committed spec without
// editing it.
func plannedRuns(fs *flag.FlagSet, pf *cli.PolicyFlags, specPath, fig string, seed uint64, chipSel, benches string) ([]namedRun, error) {
	override := func(spec *experiment.Spec) {
		fs.Visit(func(fl *flag.Flag) {
			if !pf.Override(fl.Name, spec) && fl.Name == "seed" {
				spec.Seed = seed
			}
		})
	}
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		spec, err := experiment.Parse(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		// The grid axes always come from the file.
		override(&spec)
		return []namedRun{{phase: "spec", spec: spec}}, nil
	}
	var figs []int
	switch fig {
	case "1", "2", "3":
		figs = []int{int(fig[0] - '0')}
	case "all":
		figs = []int{1, 2, 3}
	default:
		return nil, fmt.Errorf("unknown figure %q (want 1, 2, 3 or all)", fig)
	}
	var runs []namedRun
	for _, n := range figs {
		spec, err := experiment.Figure(n)
		if err != nil {
			return nil, err
		}
		spec.Seed = seed
		if chipSel != "" {
			spec.Chips = splitList(chipSel)
		}
		if benches != "" {
			spec.Benchmarks = splitList(benches)
		}
		override(&spec)
		runs = append(runs, namedRun{phase: fmt.Sprintf("fig %d", n), spec: spec})
	}
	return runs, nil
}

// splitList splits a comma-separated flag value into trimmed names.
func splitList(v string) []string {
	names := strings.Split(v, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}
	return names
}

// execute runs the specs in order — on the fiserver at serverURL, or
// locally over one scheduler (honoring -store and -workers), so later
// specs reuse every cell earlier ones measured — and renders each
// result as tables or JSON.
func execute(ctx context.Context, runs []namedRun, serverURL, storePath string, workers int, asJSON bool, stdout io.Writer, log *slog.Logger) error {
	var (
		runSpec func(experiment.Spec) (*experiment.Result, error)
		sched   *campaign.Scheduler
	)
	if serverURL != "" {
		cl := &client.Client{Base: serverURL}
		runSpec = func(spec experiment.Spec) (*experiment.Result, error) {
			return cl.RunExperiment(ctx, spec, func(ev client.Event) {
				switch ev.Event {
				case "job":
					log.Info("experiment accepted", "name", ev.Name, "job", ev.ID, "cells", ev.Total)
				case "cell":
					log.Info("cell done", "done", ev.Done, "total", ev.Total,
						"chip", ev.Chip, "benchmark", ev.Benchmark, "structure", ev.Structure, "cached", ev.Cached)
				}
			})
		}
	} else {
		var store campaign.Store
		if storePath != "" {
			ds, err := campaign.OpenStore(storePath, campaign.FormatBinary)
			if err != nil {
				return err
			}
			defer ds.Close()
			log.Info("store opened", "path", ds.Path(), "cells", ds.Len())
			store = ds
		}
		sched = campaign.New(campaign.Config{Store: store, CampaignWorkers: workers})
		runner := &experiment.Runner{
			Scheduler: sched,
			OnCell: func(p experiment.Progress) {
				log.Info("cell done", "done", p.Done, "total", p.Total,
					"cell", p.Spec.String(), "cached", p.Cached)
			},
		}
		runSpec = func(spec experiment.Spec) (*experiment.Result, error) { return runner.Run(ctx, spec) }
	}
	for _, nr := range runs {
		start := time.Now()
		res, err := runSpec(nr.spec)
		if err != nil {
			return err
		}
		if asJSON {
			err = report.WriteExperimentJSON(stdout, res)
		} else {
			err = report.WriteExperiment(stdout, res)
		}
		if err != nil {
			return err
		}
		wallTime(stdout, log, asJSON, nr.phase, start)
	}
	if sched != nil {
		st := sched.Stats()
		log.Info("campaigns done",
			"runs", st.Runs, "injections", st.Injections,
			"cached", st.Hits+st.Joins, "upgraded", st.Upgrades, "goldens", st.GoldenRuns)
	}
	return nil
}

// wallTime reports a phase's wall-clock time: appended to the tables in
// human mode, routed to the structured log under -json so the machine
// output stays a comparable JSON document (the store smoke job in CI
// diffs it byte for byte).
func wallTime(stdout io.Writer, log *slog.Logger, asJSON bool, phase string, start time.Time) {
	d := time.Since(start).Round(time.Millisecond)
	if asJSON {
		log.Info("phase done", "phase", phase, "wall", d.String())
		return
	}
	fmt.Fprintf(stdout, "\n(%s wall time: %v)\n\n", phase, d)
}
