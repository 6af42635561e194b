package finject

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestLivenessReadFrom pins the summary's encoding: an entry is live at
// a cycle exactly when the golden run read it at that cycle or later.
func TestLivenessReadFrom(t *testing.T) {
	l := newLiveness(2)
	l.RegAccess(1, 5, 0, false)
	l.RegAccess(1, 5, 100, false)
	l.RegAccess(1, 6, 200, true) // writes never make an entry live
	l.LocalAccess(0, 8, 4, 50, false)
	for _, tc := range []struct {
		f    gpu.Fault
		want bool
	}{
		{gpu.Fault{Structure: gpu.RegisterFile, Unit: 1, Entry: 5, Cycle: 0}, true},
		{gpu.Fault{Structure: gpu.RegisterFile, Unit: 1, Entry: 5, Cycle: 100}, true},
		{gpu.Fault{Structure: gpu.RegisterFile, Unit: 1, Entry: 5, Cycle: 101}, false},
		{gpu.Fault{Structure: gpu.RegisterFile, Unit: 1, Entry: 6, Cycle: 0}, false},
		{gpu.Fault{Structure: gpu.RegisterFile, Unit: 1, Entry: 4, Cycle: 0}, false},
		{gpu.Fault{Structure: gpu.RegisterFile, Unit: 0, Entry: 5, Cycle: 0}, false},
		{gpu.Fault{Structure: gpu.RegisterFile, Unit: 1, Entry: 1 << 20, Cycle: 0}, false},
		{gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 8, Cycle: 50}, true},
		{gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 11, Cycle: 50}, true},
		{gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 12, Cycle: 0}, false},
		{gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 8, Cycle: 51}, false},
		{gpu.Fault{Structure: gpu.LocalMemory, Unit: 1, Entry: 8, Cycle: 0}, false},
	} {
		if got := l.readFrom(tc.f); got != tc.want {
			t.Errorf("readFrom(%v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

// TestInjectionTelemetryAccounts: every classified injection is exactly
// one of pruned, fast-forwarded from a rung, or replayed in full; and
// the reference engine (checkpointing off) replays every injection,
// even over a shared golden that carries a liveness summary.
func TestInjectionTelemetryAccounts(t *testing.T) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := NewGolden(chips.MiniNVIDIA(), bench)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ckpt Checkpoint) (inj, pruned, restores, replays int64) {
		t.Helper()
		inj0, pr0 := telemetry.Injections.Value(), telemetry.InjectPruned.Value()
		rs0, rp0 := telemetry.CkptRestores.Value(), telemetry.FullReplays.Value()
		res, err := Run(Campaign{
			Chip: chips.MiniNVIDIA(), Benchmark: bench, Structure: gpu.RegisterFile,
			Injections: 200, Seed: 7, Golden: golden,
			Policy: Policy{Checkpoint: ckpt},
		})
		if err != nil {
			t.Fatal(err)
		}
		inj = telemetry.Injections.Value() - inj0
		if inj != int64(res.Injections) {
			t.Fatalf("injections counter moved by %d, campaign ran %d", inj, res.Injections)
		}
		return inj, telemetry.InjectPruned.Value() - pr0,
			telemetry.CkptRestores.Value() - rs0, telemetry.FullReplays.Value() - rp0
	}

	inj, pruned, restores, replays := run(Checkpoint{})
	if pruned+restores+replays != inj {
		t.Fatalf("pruned %d + restores %d + replays %d != injections %d", pruned, restores, replays, inj)
	}
	if pruned == 0 || pruned == inj {
		t.Fatalf("pruned %d of %d injections: want some pruned and some simulated", pruned, inj)
	}

	inj, pruned, restores, replays = run(Checkpoint{Off: true})
	if pruned != 0 || restores != 0 || replays != inj {
		t.Fatalf("reference engine: pruned %d, restores %d, replays %d of %d injections; want every injection replayed",
			pruned, restores, replays, inj)
	}
}

// TestPrunedFaultsMaskedUnderFullReplay is the per-injection soundness
// proof of read-liveness pruning on the paper's chips: for every
// benchmark and both structures, every sampled fault the rule prunes
// must classify Masked when simulated in full from power-on state. It
// also checks the rule is not vacuous: it must prune most faults. The
// race detector slows the full replays several-fold and the test has no
// concurrency of its own to check, so it runs only without -race.
func TestPrunedFaultsMaskedUnderFullReplay(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full replays on the paper chips")
	}
	const n = 40
	var sampled, pruned int
	for _, chip := range chips.Evaluated() {
		for _, bench := range workloads.All() {
			g, err := runGolden(chip, bench, Checkpoint{}, true)
			if err != nil {
				t.Fatalf("%s/%s: golden: %v", chip.Name, bench.Name, err)
			}
			if g.live == nil {
				t.Fatalf("%s/%s: golden has no liveness summary", chip.Name, bench.Name)
			}
			var dead []gpu.Fault
			for _, st := range []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory} {
				c := Campaign{Chip: chip, Benchmark: bench, Structure: st}
				rng := stats.NewRNG(CellSeed(chip.Name, bench.Name, st))
				for i := 0; i < n; i++ {
					f := sampleFault(rng, c, g.cycles, uint64(i))
					sampled++
					if !g.live.readFrom(f) {
						dead = append(dead, f)
					}
				}
			}
			pruned += len(dead)
			if err := replayAllMasked(chip, bench, g, dead); err != nil {
				t.Errorf("%s/%s: %v", chip.Name, bench.Name, err)
			}
		}
	}
	ratio := float64(pruned) / float64(sampled)
	t.Logf("pruned %d of %d sampled faults (%.1f%%)", pruned, sampled, 100*ratio)
	if ratio < 0.9 {
		t.Fatalf("liveness pruned only %.1f%% of faults, want >= 90%%", 100*ratio)
	}
}

// replayAllMasked classifies the faults by full replay (no ladder) over
// GOMAXPROCS device replicas and reports the first that is not Masked.
func replayAllMasked(chip *chips.Chip, bench *workloads.Benchmark, g *golden, faults []gpu.Fault) error {
	c := Campaign{Chip: chip, Benchmark: bench}
	pool := make([]*injector, min(runtime.GOMAXPROCS(0), len(faults)))
	for w := range pool {
		in, err := acquireReplica(c)
		if err != nil {
			releaseReplicas(c, pool[:w])
			return err
		}
		pool[w] = in
	}
	defer releaseReplicas(c, pool)
	errs := make([]error, len(pool))
	var wg sync.WaitGroup
	for w, in := range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(faults); i += len(pool) {
				f := faults[i]
				if o, _, _ := classify(in.d, in.hp, g, nil, f, g.cycles*DefaultWatchdogFactor+10_000); o != gpu.OutcomeMasked {
					errs[w] = fmt.Errorf("pruned fault %v classified %v under full replay", f, o)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
