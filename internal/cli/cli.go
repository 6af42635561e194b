// Package cli implements the shared command-line driver behind the gufi
// (NVIDIA) and sifi (AMD) campaign tools. Both tools are spec-first:
// -spec runs a declarative experiment file, and the classic single-cell
// flags are compiled into a one-cell spec internally, so either path is
// the same runner and the same result store.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Run executes one campaign for the given tool name, vendor, argument
// list and output stream.
func Run(tool string, vendor gpu.Vendor, args []string, w io.Writer) error {
	return RunContext(context.Background(), tool, vendor, args, w)
}

// RunContext is Run under a context; the gufi and sifi mains call it
// with a signal-canceled context so interrupts stop the campaign.
func RunContext(ctx context.Context, tool string, vendor gpu.Vendor, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	defaultChip := "HD Radeon 7970"
	if vendor == gpu.NVIDIA {
		defaultChip = "GeForce GTX 480"
	}
	var (
		chipName  = fs.String("chip", defaultChip, "chip to simulate")
		benchName = fs.String("bench", "vectoradd", "benchmark to run")
		structSel = fs.String("structure", "regfile", "structure: regfile or local")
		seed      = fs.Uint64("seed", 1, "campaign seed")
		storePath = fs.String("store", "", "result store file; repeated identical campaigns are served from it")
		specPath  = fs.String("spec", "", "run this experiment spec (JSON) instead of one flag-built cell")
		asJSON    = fs.Bool("json", false, "with -spec: emit the result as JSON instead of tables")
		listFlag  = fs.Bool("list", false, "list chips and benchmarks, then exit")
	)
	pf := AddPolicyFlags(fs)
	obs := AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// Usage was printed; asking for help is not a failure.
			return nil
		}
		return err
	}
	// Results go to w; structured logs and spans are observability and go
	// to stderr / the -trace file, never mixing into parseable output.
	_, closeTrace := obs.Init(os.Stderr, slog.LevelDebug)
	defer func() {
		if terr := closeTrace(); terr != nil && err == nil {
			err = terr
		}
	}()

	if err := pf.Validate(); err != nil {
		return err
	}
	if *listFlag {
		fmt.Fprintf(w, "%s chips:\n", vendor)
		for _, c := range chips.Evaluated() {
			if c.Vendor == vendor {
				fmt.Fprintf(w, "  %-18s %s, %d units, %.3f GHz, %d regs/unit, %d KB local/unit\n",
					c.Name, c.Arch, c.Units, c.ClockGHz, c.RegsPerUnit, c.LocalBytesPerUnit>>10)
			}
		}
		fmt.Fprintln(w, "benchmarks:")
		for _, b := range workloads.All() {
			local := ""
			if b.UsesLocal {
				local = " (uses local memory)"
			}
			fmt.Fprintf(w, "  %s%s\n", b.Name, local)
		}
		return nil
	}

	scheduler := func() (*campaign.Scheduler, func(io.Writer), error) {
		var store campaign.Store
		closeStore := func() {}
		if *storePath != "" {
			ds, err := campaign.OpenStore(*storePath, campaign.FormatBinary)
			if err != nil {
				return nil, nil, err
			}
			store = ds
			closeStore = func() { ds.Close() }
		}
		sched := campaign.New(campaign.Config{Store: store, CampaignWorkers: pf.Workers})
		summary := func(out io.Writer) {
			defer closeStore()
			if *storePath != "" {
				st := sched.Stats()
				fmt.Fprintf(out, "  store             %s (hits=%d runs=%d)\n", *storePath, st.Hits, st.Runs)
			}
		}
		return sched, summary, nil
	}

	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		spec, err := experiment.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		// Explicitly set campaign flags override the file, matching
		// cmd/figures, so committed specs shrink to any budget.
		fs.Visit(func(fl *flag.Flag) {
			if pf.Override(fl.Name, &spec) {
				return
			}
			if fl.Name == "seed" {
				spec.Seed = *seed
			}
		})
		// A spec without a chip axis would normalize to the paper's
		// four chips — both vendors — and could then run on neither
		// tool; default it to this tool's vendor instead. Everything
		// else stays raw: the runner's Validate must see the file's own
		// values so out-of-range typos are rejected, not defaulted.
		if len(spec.Chips) == 0 {
			for _, c := range chips.Evaluated() {
				if c.Vendor == vendor {
					spec.Chips = append(spec.Chips, c.Name)
				}
			}
		}
		// Each tool owns one vendor's chips, as in the paper.
		for _, name := range spec.Chips {
			c, err := chips.ByName(name)
			if err != nil {
				return err
			}
			if c.Vendor != vendor {
				return fmt.Errorf("chip %s is a %s part; use the other tool (or cmd/figures, which is vendor-neutral)", c.Name, c.Vendor)
			}
		}
		sched, statsLine, err := scheduler()
		if err != nil {
			return err
		}
		runner := &experiment.Runner{Scheduler: sched}
		res, err := runner.Run(ctx, spec)
		if err != nil {
			statsLine(io.Discard)
			return err
		}
		if *asJSON {
			err = report.WriteExperimentJSON(w, res)
		} else {
			err = report.WriteExperiment(w, res)
		}
		statsLine(w)
		return err
	}

	// Classic single-cell mode: the flags compile into a one-cell spec
	// and run through the same runner as every other surface.
	chip, err := chips.ByName(*chipName)
	if err != nil {
		return err
	}
	if chip.Vendor != vendor {
		return fmt.Errorf("chip %s is a %s part; use the other tool", chip.Name, chip.Vendor)
	}
	bench, err := workloads.ByName(*benchName)
	if err != nil {
		return err
	}
	var st gpu.Structure
	switch strings.ToLower(*structSel) {
	case "regfile", "register-file", "rf", "vgpr":
		st = gpu.RegisterFile
	case "local", "local-memory", "shared", "lds":
		st = gpu.LocalMemory
	default:
		return fmt.Errorf("unknown structure %q (want regfile or local)", *structSel)
	}
	if st == gpu.LocalMemory && !bench.UsesLocal {
		return fmt.Errorf("benchmark %s does not use local memory (the paper's Fig. 2 covers only the 7 shared-memory benchmarks)", bench.Name)
	}

	spec := experiment.Spec{
		Chips:      []string{chip.Name},
		Benchmarks: []string{bench.Name},
		Structures: []gpu.Structure{st},
		Estimator:  experiment.EstimatorBoth,
		Injections: pf.N,
		Seed:       *seed,
		Policy:     pf.SpecPolicy(),
	}
	sched, statsLine, err := scheduler()
	if err != nil {
		return err
	}
	runner := &experiment.Runner{Scheduler: sched}
	start := time.Now()
	res, err := runner.Run(ctx, spec)
	if err != nil {
		statsLine(io.Discard)
		return err
	}
	elapsed := time.Since(start)
	cell := res.Tables[0].Cells[0][0]

	worstCase, err := stats.MarginOfError(cell.Injections, 0, pf.Confidence)
	if err != nil {
		return err
	}
	secs, err := metrics.ExecSeconds(cell.Cycles, chip.ClockGHz)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s campaign: %s / %s / %s\n", tool, chip.Name, bench.Name, st)
	if pf.Margin > 0 {
		fmt.Fprintf(w, "  injections        %d of cap %d (adaptive: half-width %.2f%% <= margin %.2f%% at %.0f%% confidence, or cap)\n",
			cell.Injections, pf.N, 100*(cell.AVFFIHi-cell.AVFFILo)/2, 100*pf.Margin, 100*pf.Confidence)
	} else {
		fmt.Fprintf(w, "  injections        %d (worst-case margin ±%.2f%% at %.0f%% confidence)\n", cell.Injections, 100*worstCase, 100*pf.Confidence)
	}
	fmt.Fprintf(w, "  golden cycles     %d  (%.3e s at %.3f GHz)\n", cell.Cycles, secs, chip.ClockGHz)
	fmt.Fprintf(w, "  occupancy         %.2f%%\n", 100*cell.Occupancy)
	fmt.Fprintf(w, "  AVF (FI)          %.2f%%  [%.2f%%, %.2f%%] @%.0f%%\n", 100*cell.AVFFI, 100*cell.AVFFILo, 100*cell.AVFFIHi, 100*pf.Confidence)
	fmt.Fprintf(w, "  AVF (ACE)         %.2f%%\n", 100*cell.AVFACE)
	fmt.Fprintf(w, "  outcomes          masked=%d sdc=%d due=%d timeout=%d\n",
		cell.Outcomes[gpu.OutcomeMasked], cell.Outcomes[gpu.OutcomeSDC],
		cell.Outcomes[gpu.OutcomeDUE], cell.Outcomes[gpu.OutcomeTimeout])
	fmt.Fprintf(w, "  wall time         %v\n", elapsed.Round(time.Millisecond))
	statsLine(w)
	return nil
}
