package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ace"
	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// probeInjections is the per-cell injection count of the finject probe.
const probeInjections = 4

// probeReps is how often the cheap probes (compile, scheduler) repeat;
// their medians are reported.
const probeReps = 5

// probes times each layer in isolation by calling its public entry point
// directly: every paper chip x benchmark pair through devices.New,
// HostProgram.Run, finject.NewGolden, one Workers=1 campaign per pair on
// the shared golden, and ace.Measure; checkpoint restores; spec
// compilation; and the scheduler over a stub executor. Spans go to tr.
func probes(ctx context.Context, seed uint64, tr *tracer, m metrics) error {
	root := tr.begin("probes", "", "", 0)
	defer tr.end(root)
	var (
		newDev, golden, aceT, injT []time.Duration
		lane, cyc                  [2]int64
		simT                       [2]time.Duration
		injs                       int
	)
	for _, chip := range chips.Evaluated() {
		for _, bench := range workloads.All() {
			if err := ctx.Err(); err != nil {
				return err
			}
			v := int(chip.Vendor)
			t0 := time.Now()
			d, err := devices.New(chip)
			t1 := time.Now()
			if err != nil {
				return err
			}
			newDev = append(newDev, t1.Sub(t0))
			tr.add("devices.new", "gpu", chip.Name, root, t0, t1)
			hp, err := bench.New(chip.Vendor)
			if err != nil {
				return err
			}
			t0 = time.Now()
			err = hp.Run(d)
			t1 = time.Now()
			if err != nil {
				return fmt.Errorf("fault-free run %s/%s: %w", chip.Name, bench.Name, err)
			}
			tr.add(vendorLayer(chip.Vendor)+".run", vendorLayer(chip.Vendor), chip.Name+"/"+bench.Name, root, t0, t1)
			st := d.Stats()
			lane[v] += st.LaneInstructions
			cyc[v] += st.Cycles
			simT[v] += t1.Sub(t0)

			t0 = time.Now()
			g, err := finject.NewGolden(chip, bench)
			t1 = time.Now()
			if err != nil {
				return err
			}
			golden = append(golden, t1.Sub(t0))
			tr.add("finject.golden", "finject", chip.Name+"/"+bench.Name, root, t0, t1)

			c := finject.Campaign{Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
				Injections: probeInjections, Seed: experiment.CellSeed(seed, chip.Name, bench.Name, gpu.RegisterFile),
				Policy: finject.Policy{Workers: 1}, Golden: g}
			t0 = time.Now()
			res, err := finject.RunContext(ctx, c)
			t1 = time.Now()
			if err != nil {
				return err
			}
			injT = append(injT, t1.Sub(t0))
			injs += res.Injections
			tr.add("finject.run", "finject", chip.Name+"/"+bench.Name, root, t0, t1)

			d2, err := devices.New(chip)
			if err != nil {
				return err
			}
			hp2, err := bench.New(chip.Vendor)
			if err != nil {
				return err
			}
			t0 = time.Now()
			_, _, _, err = ace.Measure(d2, hp2)
			t1 = time.Now()
			if err != nil {
				return err
			}
			aceT = append(aceT, t1.Sub(t0))
			tr.add("ace.measure", "ace", chip.Name+"/"+bench.Name, root, t0, t1)
		}
	}
	var totalInj time.Duration
	for _, d := range injT {
		totalInj += d
	}
	m.set("devices.new_us", median(us(newDev)), "us")
	m.set("nvsim.lane_instrs_per_s", float64(lane[gpu.NVIDIA])/simT[gpu.NVIDIA].Seconds(), "1/s")
	m.set("nvsim.sim_cycles_per_s", float64(cyc[gpu.NVIDIA])/simT[gpu.NVIDIA].Seconds(), "1/s")
	m.set("amdsim.lane_instrs_per_s", float64(lane[gpu.AMD])/simT[gpu.AMD].Seconds(), "1/s")
	m.set("amdsim.sim_cycles_per_s", float64(cyc[gpu.AMD])/simT[gpu.AMD].Seconds(), "1/s")
	m.set("finject.golden_ms", median(ms(golden)), "ms")
	m.set("finject.us_per_inj", float64(totalInj)/float64(time.Microsecond)/float64(injs), "us")
	m.set("ace.measure_ms", median(ms(aceT)), "ms")

	if err := restoreProbe(tr, root, m); err != nil {
		return err
	}
	var compile, sched []float64
	for i := 0; i < probeReps; i++ {
		specs, err := figSpecs(seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := compileAll(specs); err != nil {
			return err
		}
		t1 := time.Now()
		compile = append(compile, float64(t1.Sub(t0))/float64(time.Millisecond))
		tr.add("experiment.compile", "experiment", "", root, t0, t1)

		perCell, err := schedProbe(ctx, seed+uint64(i))
		if err != nil {
			return err
		}
		sched = append(sched, perCell)
	}
	m.set("experiment.compile_ms", median(compile), "ms")
	m.set("campaign.sched_us_per_cell", median(sched), "us")
	return nil
}

// vendorLayer names the simulator module of a vendor.
func vendorLayer(v gpu.Vendor) string {
	if v == gpu.AMD {
		return "amdsim"
	}
	return "nvsim"
}

// restoreProbe captures a checkpoint ladder of about ten rungs during a
// fault-free run of one benchmark per vendor, then restores every rung
// in turn, replaying the program to its end after each restore so the
// next restore sees a dirtied image, as an injection leaves it. Only the
// restores are timed.
func restoreProbe(tr *tracer, root int, m metrics) error {
	var times []time.Duration
	var copied, shared int64
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		return err
	}
	for _, chip := range []*chips.Chip{chips.QuadroFX5600(), chips.HDRadeon7970()} {
		d, err := devices.New(chip)
		if err != nil {
			return err
		}
		hp, err := bench.New(chip.Vendor)
		if err != nil {
			return err
		}
		if err := hp.Run(d); err != nil {
			return err
		}
		interval := d.Stats().Cycles / 10
		d.Reset()
		var rungs []gpu.Snapshot
		d.SetCheckpointHook(interval, func(s gpu.Snapshot) int64 {
			rungs = append(rungs, s)
			return s.Cycle() + interval
		})
		if err := hp.Run(d); err != nil {
			return err
		}
		d.SetCheckpointHook(0, nil)
		rc, _ := d.(gpu.RestoreCoster)
		for _, s := range rungs {
			var c0, s0 int64
			if rc != nil {
				c0, s0 = rc.RestorePageStats()
			}
			t0 := time.Now()
			err := d.Restore(s)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("restore %s at cycle %d: %w", chip.Name, s.Cycle(), err)
			}
			times = append(times, t1.Sub(t0))
			tr.add("gpu.restore", "gpu", chip.Name, root, t0, t1)
			if rc != nil {
				c1, s1 := rc.RestorePageStats()
				copied += c1 - c0
				shared += s1 - s0
			}
			if err := hp.Run(d); err != nil {
				return err
			}
		}
	}
	m.set("gpu.restore_us", median(us(times)), "us")
	m.set("gpu.pages_copied_per_restore", ratio(float64(copied), float64(len(times))), "count")
	m.set("gpu.pages_shared_ratio", ratio(float64(shared), float64(copied+shared)), "ratio")
	return nil
}

// stubExecutor answers every cell instantly with a fixed result, so a
// scheduler over it measures scheduling and store overhead alone.
type stubExecutor struct{}

func (stubExecutor) Execute(_ context.Context, req campaign.Request) (*finject.Result, error) {
	res := &finject.Result{Injections: req.Spec.Injections}
	res.Outcomes[gpu.OutcomeMasked] = req.Spec.Injections
	return res, nil
}

// schedCells is the batch size of the scheduler probe.
const schedCells = 2000

// schedProbe runs one batch of distinct cells through Scheduler.RunBatch
// over the stub executor and returns host microseconds per cell.
func schedProbe(ctx context.Context, seed uint64) (float64, error) {
	chip := chips.MiniNVIDIA()
	bench, err := workloads.ByName("vectoradd")
	if err != nil {
		return 0, err
	}
	batch := make([]finject.Campaign, schedCells)
	for i := range batch {
		batch[i] = finject.Campaign{Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
			Injections: 10, Seed: seed*schedCells + uint64(i)}
	}
	sched := campaign.New(campaign.Config{Executor: stubExecutor{}})
	t0 := time.Now()
	res, err := sched.RunBatch(ctx, batch, nil)
	el := time.Since(t0)
	if err != nil {
		return 0, err
	}
	for _, r := range res {
		if r == nil || r.Injections != 10 {
			return 0, fmt.Errorf("scheduler probe: bad stub result")
		}
	}
	return float64(el) / float64(time.Microsecond) / schedCells, nil
}
