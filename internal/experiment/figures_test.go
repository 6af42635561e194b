// The figure-level proofs: the paper's three figures, run as their canned
// specs through the Runner and rendered by internal/report. They live in
// the external test package because report imports experiment.
package experiment_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// miniChips is the chip axis of the figure tests: one Mini part per
// vendor.
var miniChips = []string{"Mini NVIDIA", "Mini AMD"}

// figureSpec returns the canned spec of one paper figure at budget n and
// seed, on the Mini chips and, when benches is non-empty, that benchmark
// subset.
func figureSpec(t *testing.T, fig, n int, seed uint64, benches ...string) experiment.Spec {
	t.Helper()
	spec, err := experiment.Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chips = miniChips
	if len(benches) > 0 {
		spec.Benchmarks = benches
	}
	spec.Injections = n
	spec.Seed = seed
	return spec
}

// cellSpec is a one-cell FI + ACE spec.
func cellSpec(chip, bench string, st gpu.Structure, n int, seed uint64) experiment.Spec {
	return experiment.Spec{
		Chips:      []string{chip},
		Benchmarks: []string{bench},
		Structures: []gpu.Structure{st},
		Estimator:  experiment.EstimatorBoth,
		Injections: n,
		Seed:       seed,
	}
}

// runSpec runs one spec on sched (a private scheduler when nil).
func runSpec(t *testing.T, sched *campaign.Scheduler, spec experiment.Spec) *experiment.Result {
	t.Helper()
	res, err := (&experiment.Runner{Scheduler: sched}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// renderJSON renders results as the concatenated experiment documents
// `figures -json` prints.
func renderJSON(t *testing.T, results ...*experiment.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, res := range results {
		if err := report.WriteExperimentJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestMeasureCell(t *testing.T) {
	res := runSpec(t, nil, cellSpec("Mini NVIDIA", "reduction", gpu.LocalMemory, 80, 9))
	cell := res.Tables[0].Cells[0][0]
	if cell.Chip != "Mini NVIDIA" || cell.Benchmark != "reduction" {
		t.Fatalf("labels: %+v", cell)
	}
	if cell.AVFFI < 0 || cell.AVFFI > 1 || cell.AVFACE <= 0 || cell.AVFACE > 1 {
		t.Fatalf("AVFs out of range: %+v", cell)
	}
	if cell.AVFFILo > cell.AVFFI || cell.AVFFIHi < cell.AVFFI {
		t.Fatalf("interval excludes estimate: %+v", cell)
	}
	if cell.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	total := 0
	for _, c := range cell.Outcomes {
		total += c
	}
	if total != 80 {
		t.Fatalf("outcomes sum %d, want 80", total)
	}
}

func TestFigureRegisterFileGrid(t *testing.T) {
	res := runSpec(t, nil, figureSpec(t, 1, 40, 9, "vectoradd", "transpose"))
	if len(res.Benchmarks) != 2 || len(res.Chips) != 2 {
		t.Fatalf("grid %dx%d", len(res.Benchmarks), len(res.Chips))
	}
	tbl := res.Table(gpu.RegisterFile)
	if tbl == nil || len(tbl.Cells) != 2 || len(tbl.Cells[0]) != 2 {
		t.Fatal("cells shape wrong")
	}
	if len(tbl.Averages) != 2 {
		t.Fatal("averages missing")
	}
	// The average must lie within the per-benchmark extremes.
	for ci := range res.Chips {
		lo, hi := 2.0, -1.0
		for bi := range res.Benchmarks {
			v := tbl.Cells[bi][ci].AVFACE
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		avg := tbl.Averages[ci].AVFACE
		if avg < lo-1e-12 || avg > hi+1e-12 {
			t.Fatalf("chip %d average %v outside [%v,%v]", ci, avg, lo, hi)
		}
	}
}

func TestFigureLocalMemoryUsesSubset(t *testing.T) {
	res := runSpec(t, nil, figureSpec(t, 2, 30, 9))
	if len(res.Benchmarks) != 7 {
		t.Fatalf("local-memory figure has %d benchmarks, want 7", len(res.Benchmarks))
	}
	for _, n := range res.Benchmarks {
		if n == "gaussian" || n == "kmeans" || n == "vectoradd" {
			t.Fatalf("non-local benchmark %s in Fig. 2 set", n)
		}
	}
}

func TestFigureEPF(t *testing.T) {
	res := runSpec(t, nil, figureSpec(t, 3, 60, 9, "matrixMul"))
	for ci := range res.Chips {
		r := res.EPF.Rows[0][ci]
		if r.Seconds <= 0 || r.Cycles <= 0 {
			t.Fatalf("row %d: %+v", ci, r)
		}
		if r.EPF < 0 {
			t.Fatalf("negative EPF: %+v", r)
		}
		// EPF must respond to AVF: if any faults manifested the EPF is
		// finite and positive.
		if (r.RegAVF > 0 || r.LocalAVF > 0) && r.EPF == 0 {
			t.Fatalf("manifested faults but zero EPF: %+v", r)
		}
	}
}

func TestCellSeedDistinct(t *testing.T) {
	s1 := experiment.CellSeed(1, "a", "b", gpu.RegisterFile)
	s2 := experiment.CellSeed(1, "a", "b", gpu.LocalMemory)
	s3 := experiment.CellSeed(1, "a", "c", gpu.RegisterFile)
	s4 := experiment.CellSeed(2, "a", "b", gpu.RegisterFile)
	if s1 == s2 || s1 == s3 || s1 == s4 || s2 == s3 {
		t.Fatalf("seed collisions: %x %x %x %x", s1, s2, s3, s4)
	}
}

// TestFigureSpecPaperDefaults: a figure spec left at its defaults is the
// paper's configuration — 2,000 injections per cell at 99% confidence,
// the full suite on the four evaluated chips, in the paper's order.
func TestFigureSpecPaperDefaults(t *testing.T) {
	s, err := experiment.Figure(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Injections != 2000 || len(s.Chips) != 4 || len(s.Benchmarks) != 10 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if s.Policy.Confidence != 0.99 {
		t.Fatalf("confidence default %v", s.Policy.Confidence)
	}
	if !strings.Contains(s.Chips[0], "Radeon") {
		t.Fatalf("chip order: %s first, want the Radeon (paper order)", s.Chips[0])
	}
}

// TestFigureAdaptiveStopsBelowCap: an attainable margin must save
// injections on every cell of a figure run, and the realized count is
// surfaced on the cell.
func TestFigureAdaptiveStopsBelowCap(t *testing.T) {
	spec := figureSpec(t, 1, 2000, 9, "vectoradd")
	spec.Policy.Margin = 0.1
	res := runSpec(t, nil, spec)
	for _, row := range res.Tables[0].Cells {
		for _, cell := range row {
			if cell.Injections <= 0 || cell.Injections >= 2000 {
				t.Fatalf("cell %s/%s realized %d injections, want early stop below the cap",
					cell.Chip, cell.Benchmark, cell.Injections)
			}
		}
	}
}

// TestFiguresShareScheduler is the orchestration acceptance test: running
// Fig. 1, Fig. 2 and then Fig. 3 against one shared scheduler must
// execute every unique (chip, benchmark, structure) campaign exactly
// once, and a warm-store rerun of Fig. 3 must perform zero new
// injections.
func TestFiguresShareScheduler(t *testing.T) {
	sched := campaign.New(campaign.Config{})
	nChips := len(miniChips)
	nAll := len(workloads.All())
	nLocal := len(workloads.LocalMemorySubset())

	runSpec(t, sched, figureSpec(t, 1, 10, 9))
	afterFig1 := sched.Stats()
	if want := int64(nAll * nChips); afterFig1.Runs != want {
		t.Fatalf("fig 1 executed %d campaigns, want %d", afterFig1.Runs, want)
	}
	if want := int64(nAll * nChips); afterFig1.GoldenRuns != want {
		t.Fatalf("fig 1 ran %d goldens, want one per (chip, benchmark) = %d", afterFig1.GoldenRuns, want)
	}

	runSpec(t, sched, figureSpec(t, 2, 10, 9))
	afterFig2 := sched.Stats()
	if want := int64((nAll + nLocal) * nChips); afterFig2.Runs != want {
		t.Fatalf("figs 1+2 executed %d campaigns, want %d", afterFig2.Runs, want)
	}
	// Fig. 2's local-memory campaigns reuse Fig. 1's golden runs.
	if afterFig2.GoldenRuns != afterFig1.GoldenRuns {
		t.Fatalf("fig 2 ran %d extra goldens", afterFig2.GoldenRuns-afterFig1.GoldenRuns)
	}

	epf := runSpec(t, sched, figureSpec(t, 3, 10, 9)).EPF
	afterFig3 := sched.Stats()
	// Fig. 3 needs both structures for all benchmarks: the register-file
	// cells and the 7 local-memory cells already exist, so only the
	// local-memory campaigns of the non-local benchmarks are new.
	if want := int64(2 * nAll * nChips); afterFig3.Runs != want {
		t.Fatalf("figs 1+2+3 executed %d campaigns, want %d unique cells", afterFig3.Runs, want)
	}
	if afterFig3.Hits <= afterFig2.Hits {
		t.Fatal("fig 3 never hit the store despite overlapping figs 1 and 2")
	}

	// Warm rerun: zero new campaign executions, zero new goldens.
	epf2 := runSpec(t, sched, figureSpec(t, 3, 10, 9)).EPF
	warm := sched.Stats()
	if warm.Runs != afterFig3.Runs {
		t.Fatalf("warm fig 3 executed %d new campaigns", warm.Runs-afterFig3.Runs)
	}
	if warm.GoldenRuns != afterFig3.GoldenRuns {
		t.Fatalf("warm fig 3 ran %d new goldens", warm.GoldenRuns-afterFig3.GoldenRuns)
	}
	// And it reproduces the same figure.
	for bi := range epf.Rows {
		for ci := range epf.Rows[bi] {
			if *epf.Rows[bi][ci] != *epf2.Rows[bi][ci] {
				t.Fatalf("warm rerun changed row %d/%d", bi, ci)
			}
		}
	}
}

// TestMeasureEPFReusesStore: one EPF row's campaigns go through the
// store, so repeating the row is free.
func TestMeasureEPFReusesStore(t *testing.T) {
	sched := campaign.New(campaign.Config{})
	spec := figureSpec(t, 3, 12, 4, "reduction")
	spec.Chips = []string{"Mini NVIDIA"}
	runSpec(t, sched, spec)
	first := sched.Stats()
	if first.Runs != 2 {
		t.Fatalf("one (chip, benchmark) EPF row executed %d campaigns, want 2", first.Runs)
	}
	if first.GoldenRuns != 1 {
		t.Fatalf("both structures should share one golden, ran %d", first.GoldenRuns)
	}
	runSpec(t, sched, spec)
	if again := sched.Stats(); again.Runs != first.Runs {
		t.Fatalf("repeated EPF re-executed campaigns: %+v", again)
	}
}

func TestFigureCells(t *testing.T) {
	counts := map[int]int{
		1: len(workloads.All()),
		2: len(workloads.LocalMemorySubset()),
		3: 2 * len(workloads.All()),
	}
	for fig, want := range counts {
		spec := figureSpec(t, fig, 10, 0)
		spec.Chips = []string{"Mini NVIDIA"}
		plan, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		specs := plan.CellSpecs()
		if len(specs) != want {
			t.Fatalf("fig %d: %d cells, want %d", fig, len(specs), want)
		}
		for _, s := range specs {
			if s.Injections != 10 || s.Chip != "Mini NVIDIA" {
				t.Fatalf("fig %d spec not normalized: %+v", fig, s)
			}
		}
	}
	if _, err := experiment.Figure(4); err == nil {
		t.Fatal("figure 4 accepted")
	}
}

func TestFigureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := figureSpec(t, 1, 10, 2)
	spec.Chips = []string{"Mini NVIDIA"}
	if _, err := (&experiment.Runner{}).Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestFigureSpecsMatchFigureCells: the canned figure specs compile to
// exactly the cells the figures have always measured — benchmark-major,
// then chip (paper order), then structure, each keyed as the cell spec a
// /v1/jobs client would submit for it — so stores warmed before the
// specs existed stay warm.
func TestFigureSpecsMatchFigureCells(t *testing.T) {
	type grid struct {
		structures []gpu.Structure
		benches    []*workloads.Benchmark
	}
	grids := map[int]grid{
		1: {[]gpu.Structure{gpu.RegisterFile}, workloads.All()},
		2: {[]gpu.Structure{gpu.LocalMemory}, workloads.LocalMemorySubset()},
		3: {[]gpu.Structure{gpu.RegisterFile, gpu.LocalMemory}, workloads.All()},
	}
	for fig := 1; fig <= 3; fig++ {
		spec, err := experiment.Figure(fig)
		if err != nil {
			t.Fatal(err)
		}
		spec.Seed = 5
		spec.Injections = 77
		plan, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var legacy []campaign.CellSpec
		for _, b := range grids[fig].benches {
			for _, c := range chips.Evaluated() {
				for _, st := range grids[fig].structures {
					legacy = append(legacy, campaign.CellSpec{
						Chip: c.Name, Benchmark: b.Name, Structure: st, Injections: 77,
						Seed: experiment.CellSeed(5, c.Name, b.Name, st),
					}.Normalize())
				}
			}
		}
		got := plan.CellSpecs()
		if len(got) != len(legacy) {
			t.Fatalf("fig %d: %d cells vs legacy %d", fig, len(got), len(legacy))
		}
		for i := range got {
			if got[i].Key() != legacy[i].Key() {
				t.Fatalf("fig %d cell %d: key mismatch\n%s\nvs\n%s", fig, i, got[i], legacy[i])
			}
		}
	}
}

// TestFigureJSONCheckpointEquivalence is the figure-level half of the
// differential proof: all three paper figures, regenerated once with
// checkpointed fast-forward and once with full per-injection replay on
// deliberately separate schedulers (so nothing is served from a shared
// cache), must serialize to byte-identical JSON documents.
func TestFigureJSONCheckpointEquivalence(t *testing.T) {
	render := func(t *testing.T, ckpt *finject.Checkpoint) []byte {
		t.Helper()
		sched := campaign.New(campaign.Config{})
		var results []*experiment.Result
		for fig := 1; fig <= 3; fig++ {
			spec := figureSpec(t, fig, 50, 41)
			spec.Policy.Checkpoint = ckpt
			res := runSpec(t, sched, spec)
			// The spec echo records the execution knob itself;
			// everything measured must match.
			res.Spec.Policy.Checkpoint = nil
			results = append(results, res)
		}
		return renderJSON(t, results...)
	}

	full := render(t, &finject.Checkpoint{Off: true})
	ckpt := render(t, nil)
	if !bytes.Equal(full, ckpt) {
		t.Fatalf("figure JSON diverges between full replay and checkpointed execution:\nfull:\n%s\ncheckpointed:\n%s", full, ckpt)
	}
}

// TestFigureJSONServedFromReopenedStore is the store half of the
// differential proof: the paper figures rendered while executing every
// cell into a fresh result store, and then once more from a fresh reopen
// of that store, so every cell is decoded from disk rather than
// executed, must serialize to byte-identical JSON documents.
func TestFigureJSONServedFromReopenedStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	render := func(t *testing.T) ([]byte, campaign.Stats) {
		t.Helper()
		st, err := campaign.OpenStore(path, campaign.FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		sched := campaign.New(campaign.Config{Store: st})
		out := renderJSON(t,
			runSpec(t, sched, figureSpec(t, 1, 40, 43)),
			runSpec(t, sched, figureSpec(t, 3, 40, 43)))
		return out, sched.Stats()
	}

	executed, cold := render(t)
	if cold.Runs == 0 {
		t.Fatal("cold render executed no campaigns")
	}
	warm, stats := render(t)
	if stats.Runs != 0 {
		t.Fatalf("warm render executed %d campaigns, want every cell served from the store", stats.Runs)
	}
	if !bytes.Equal(executed, warm) {
		t.Fatalf("figure JSON diverges when served from a reopened store:\nexecuted:\n%s\nfrom disk:\n%s", executed, warm)
	}
}

// TestFigureJSONTelemetryEquivalence is the observability tier's
// inertness proof at the figure level: the same figure computed with
// every observer running — tracer installed, debug logger as the slog
// default, and a goroutine hammering the metrics registry's exposition
// the whole time — must serialize byte-identically to the unobserved
// run. Campaigns are deterministic functions of (spec, seed); telemetry
// must stay outside that function.
func TestFigureJSONTelemetryEquivalence(t *testing.T) {
	spec := figureSpec(t, 1, 40, 7, "vectoradd", "matrixMul")
	spec.Chips = []string{"Mini NVIDIA"}
	render := func() []byte {
		t.Helper()
		return renderJSON(t, runSpec(t, nil, spec))
	}

	// Unobserved reference first (other tests may have bumped counters
	// already; counters are always-on and proven inert by this very
	// comparison).
	off := render()

	// Now with the full observer set running.
	prevTracer := telemetry.SetTracer(telemetry.NewTracer())
	prevLog := slog.Default()
	slog.SetDefault(telemetry.NewLogger(io.Discard, slog.LevelDebug, "json"))
	scrapeDone := make(chan struct{})
	stopScrape := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
				telemetry.Default.WritePrometheus(io.Discard)
			}
		}
	}()
	on := render()
	close(stopScrape)
	<-scrapeDone
	slog.SetDefault(prevLog)
	telemetry.SetTracer(prevTracer)

	if !bytes.Equal(off, on) {
		t.Fatalf("figure JSON differs with telemetry on:\noff: %s\non:  %s", off, on)
	}
	if telemetry.ActiveTracer() != prevTracer {
		t.Fatal("tracer not restored")
	}
}

// TestFigureJSONDeterministicAcrossWorkers: the rendered figure JSON —
// the artifact campaigns ultimately exist to produce — must be
// byte-identical for any worker count and for adaptive vs fixed policies
// that realize the same sample, with a fixed seed.
func TestFigureJSONDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int, margin float64) []byte {
		t.Helper()
		spec := figureSpec(t, 1, 60, 9, "vectoradd")
		spec.Policy.Margin = margin
		res := runSpec(t, campaign.New(campaign.Config{CampaignWorkers: workers}), spec)
		// The spec echo records the requested stopping rule; the
		// measured figure must not depend on it.
		res.Spec.Policy.Margin = 0
		return renderJSON(t, res)
	}

	want := render(1, 0)
	if got := render(8, 0); !bytes.Equal(got, want) {
		t.Fatalf("figure JSON differs across worker counts:\n%s\nvs\n%s", want, got)
	}
	// An unattainably tight margin runs adaptive campaigns to the cap,
	// so the figure must come out identical to the fixed-size run.
	if got := render(8, 1e-9); !bytes.Equal(got, want) {
		t.Fatalf("figure JSON differs between fixed and adaptive-capped runs:\n%s\nvs\n%s", want, got)
	}
}

// TestFIWithinACEBound encodes the methodology's structural relationship:
// in expectation, a fault manifests only if it lands in an ACE interval,
// so AVF-FI must not exceed AVF-ACE by more than the FI sampling margin.
// This is the invariant behind the paper's "ACE is conservative"
// reading, checked per benchmark on a mini chip with a fixed seed.
func TestFIWithinACEBound(t *testing.T) {
	const n = 250
	margin, err := stats.MarginOfError(n, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	for _, benchName := range []string{"transpose", "matrixMul", "reduction"} {
		for _, st := range []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory} {
			cell := runSpec(t, nil, cellSpec("Mini NVIDIA", benchName, st, n, 17)).Tables[0].Cells[0][0]
			if cell.AVFFI > cell.AVFACE+margin {
				t.Errorf("%s/%s: AVF-FI %.4f exceeds AVF-ACE %.4f beyond the ±%.4f sampling margin",
					benchName, st, cell.AVFFI, cell.AVFACE, margin)
			}
		}
	}
}

// TestAVFTracksOccupancyAcrossSuite encodes the paper's occupancy
// correlation quantitatively: across the suite, ACE AVF and occupancy
// must correlate strongly on the register file.
func TestAVFTracksOccupancyAcrossSuite(t *testing.T) {
	var avfs, occs []float64
	for _, b := range workloads.All() {
		// FI result unused; ACE drives the test.
		cell := runSpec(t, nil, cellSpec("Mini NVIDIA", b.Name, gpu.RegisterFile, 1, 1)).Tables[0].Cells[0][0]
		avfs = append(avfs, cell.AVFACE)
		occs = append(occs, cell.Occupancy)
	}
	r, err := stats.PearsonCorrelation(occs, avfs)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.6 {
		t.Fatalf("occupancy-AVF correlation r=%.3f too weak (paper reports a strong correlation)", r)
	}
}

// TestOptionsExecutorRoutesExecution proves a scheduler's Executor is the
// runner's entry into the distributed tier: cells flow through the
// provided executor, not a private local one.
func TestOptionsExecutorRoutesExecution(t *testing.T) {
	exec := campaign.NewLocalExecutor()
	sched := campaign.New(campaign.Config{Executor: exec})
	cell := runSpec(t, sched, cellSpec("Mini NVIDIA", "vectoradd", gpu.RegisterFile, 20, 4)).Tables[0].Cells[0][0]
	if cell.Injections != 20 {
		t.Fatalf("cell %+v", cell)
	}
	if exec.GoldenRuns() != 1 {
		t.Fatalf("custom executor ran %d goldens, want 1 (not used?)", exec.GoldenRuns())
	}
}

// TestFigureThroughRemoteTierMatchesLocal runs a small figure with the
// campaigns executed by an in-process "fleet" draining a lease queue and
// compares the figure JSON byte-for-byte against the default local path —
// the determinism-across-the-wire contract at the figure level.
func TestFigureThroughRemoteTierMatchesLocal(t *testing.T) {
	spec := figureSpec(t, 1, 30, 5, "vectoradd", "transpose")
	spec.Chips = []string{"Mini NVIDIA"}
	local := renderJSON(t, runSpec(t, nil, spec))

	q := campaign.NewLeaseQueue(time.Minute)
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < 2; i++ {
		go drainForTest(q, stop)
	}
	remoteSched := campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q)})
	remote := renderJSON(t, runSpec(t, remoteSched, spec))
	if !bytes.Equal(local, remote) {
		t.Fatalf("remote figure differs from local:\nlocal:  %s\nremote: %s", local, remote)
	}
}

// drainForTest is a minimal in-process worker loop.
func drainForTest(q *campaign.LeaseQueue, stop chan struct{}) {
	exec := campaign.NewLocalExecutor()
	for {
		select {
		case <-stop:
			return
		default:
		}
		leases := q.Lease("experiment-test-worker", 1)
		if len(leases) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, l := range leases {
			spec := l.Task.Spec.Normalize()
			cfg := l.Task.Policy
			cfg.Workers = 1
			res, err := exec.Execute(context.Background(), campaign.Request{Spec: spec, Key: spec.Key(), Policy: cfg.Policy(spec.CheckpointPolicy())})
			msg := ""
			if err != nil {
				msg, res = err.Error(), nil
			}
			q.Complete(l.ID, res, msg)
		}
	}
}
