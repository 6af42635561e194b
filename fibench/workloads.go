package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// setupReps is how many times a run repeats the workload's set-up alone;
// setup_s is the median.
const setupReps = 201

// minPasses is the least number of measured passes a figure run makes,
// however long they take.
const minPasses = 3

// counters is a snapshot of the engine's exact telemetry counters.
type counters struct {
	inj, sim, ff, restores, replays, ladderBytes, leases int64
}

func readCounters() counters {
	return counters{
		inj:         telemetry.Injections.Value(),
		sim:         telemetry.SimulatedCycles.Value(),
		ff:          telemetry.FastForwardCycles.Value(),
		restores:    telemetry.CkptRestores.Value(),
		replays:     telemetry.FullReplays.Value(),
		ladderBytes: telemetry.LadderBytes.Value(),
		leases:      telemetry.LeasesGranted.Value(),
	}
}

// add returns a plus the counts accumulated from before to after.
func (a counters) add(after, before counters) counters {
	return counters{
		inj:         a.inj + after.inj - before.inj,
		sim:         a.sim + after.sim - before.sim,
		ff:          a.ff + after.ff - before.ff,
		restores:    a.restores + after.restores - before.restores,
		replays:     a.replays + after.replays - before.replays,
		ladderBytes: a.ladderBytes + after.ladderBytes - before.ladderBytes,
		leases:      a.leases + after.leases - before.leases,
	}
}

// e2e sets the end-to-end metrics shared by every workload.
func e2e(m metrics, walls, setups, injRates, cellRates, jobMS []float64, rssMiB float64) {
	m.set("wall_s", median(walls), "s")
	m.set("setup_s", median(setups), "s")
	m.set("inj_per_s", median(injRates), "1/s")
	m.set("cells_per_s", median(cellRates), "1/s")
	m.set("job_ms_p50", percentile(jobMS, 50), "ms")
	m.set("job_ms_p95", percentile(jobMS, 95), "ms")
	m.set("peak_rss_mb", rssMiB, "MiB")
}

// engineMetrics sets the exact per-injection counts from counter deltas
// and the masked share from the verified results.
func engineMetrics(m metrics, d counters, passes int, injections, masked int) {
	m.set("finject.sim_cycles_per_inj", ratio(float64(d.sim), float64(d.inj)), "count")
	m.set("finject.ff_cycles_per_inj", ratio(float64(d.ff), float64(d.inj)), "count")
	m.set("finject.restore_ratio", ratio(float64(d.restores), float64(d.restores+d.replays)), "ratio")
	m.set("finject.ladder_mb", ratio(float64(d.ladderBytes)/(1<<20), float64(passes)), "MiB")
	m.set("finject.masked_ratio", ratio(float64(masked), float64(injections)), "ratio")
}

// shareMetrics averages the layer attribution of the given root spans.
func shareMetrics(m metrics, spans []span, roots []int) {
	sum := map[string]float64{}
	for _, r := range roots {
		for layer, s := range attribute(spans, r) {
			sum[layer] += s / float64(len(roots))
		}
	}
	for _, layer := range []string{"experiment", "campaign", "finject", "report"} {
		m.set("share."+layer, sum[layer], "ratio")
	}
	m.set("trace.unaccounted_share", sum["unaccounted"], "ratio")
}

// queueWaitMS returns, per executed cell, the time from the end of the
// store lookup that missed to the start of its execution.
func queueWaitMS(spans []span, execName string) []float64 {
	missed := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == "campaign.store_get" {
			if _, ok := missed[s.Key]; !ok {
				missed[s.Key] = s.End
			}
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == execName {
			if end, ok := missed[s.Key]; ok {
				out = append(out, float64(s.Start-end)/float64(time.Millisecond))
			}
		}
	}
	return out
}

// descendants returns the spans under root (root included).
func descendants(spans []span, root int) []span {
	parent := make(map[int]int, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	var out []span
	for _, s := range spans {
		for p := s.ID; p != 0; p = parent[p] {
			if p == root {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

func figsCold(ctx context.Context, e env) (*outcome, error) {
	return figs(ctx, e, false)
}

func figsWarm(ctx context.Context, e env) (*outcome, error) {
	return figs(ctx, e, true)
}

// figs runs the figure workloads. Cold passes each create a fresh store;
// warm passes reopen the store a preparatory cold pass wrote and must
// reproduce its bytes with zero injections.
func figs(ctx context.Context, e env, warm bool) (*outcome, error) {
	out := &outcome{metrics: metrics{}}
	path := filepath.Join(e.work, "cells.store")
	var ref []byte
	if warm {
		p, err := runFigsPass(ctx, path, true, e.seed, e.nproc, nil)
		if err != nil {
			return nil, err
		}
		out.check.merge(p.check)
		ref = p.out
	}
	if e.trace {
		return figsTraced(ctx, e, warm, path, ref, out)
	}

	setupPath := path
	if !warm {
		setupPath = filepath.Join(e.work, "setup.store")
	}
	settle() // the warm run's preparatory pass left gigabytes of garbage
	setups, err := figsSetup(setupPath, !warm, e.seed, setupReps)
	if err != nil {
		return nil, err
	}
	// The first pass warms the process (heap growth, the engine's
	// replica pools); it is verified but not timed.
	var walls, injRates, cellRates, jobMS []float64
	rss := startRSS()
	var start time.Time
	for pass := 0; pass <= minPasses || time.Since(start) < e.seconds; pass++ {
		p, err := runFigsPass(ctx, path, !warm, e.seed, e.nproc, nil)
		if err != nil {
			rss.finish()
			return nil, err
		}
		if ref == nil {
			ref = p.out
		}
		verifyPass(&out.check, p, ref, warm)
		if pass == 0 {
			start = time.Now()
			continue
		}
		walls = append(walls, p.wall.Seconds())
		injRates = append(injRates, float64(p.injections)/p.wall.Seconds())
		cellRates = append(cellRates, float64(p.gridCells)/p.wall.Seconds())
		jobMS = append(jobMS, ms(p.specTimes)...)
	}
	e2e(out.metrics, walls, setups, injRates, cellRates, jobMS, rss.finish())
	out.digest = sha256Hex(ref)
	out.notes = append(out.notes, fmt.Sprintf("passes=%d spec_latency_samples=%d walls_s=%.3f", len(walls), len(jobMS), walls))
	return out, nil
}

// verifyPass checks one pass beyond its per-cell checks: its bytes equal
// the reference (the first cold pass, or the cold pass a warm run
// reopens), and the scheduler did exactly the work the workload implies.
func verifyPass(c *checks, p *figsPass, ref []byte, warm bool) {
	c.merge(p.check)
	c.attempted++
	switch {
	case !bytes.Equal(p.out, ref):
		c.fail("pass output differs from the reference output")
	case warm && (p.stats.Runs != 0 || p.stats.Injections != 0 || hitRatio(p.stats) != 1):
		c.fail("warm pass executed %d cells (%d injections), hit ratio %v", p.stats.Runs, p.stats.Injections, hitRatio(p.stats))
	case !warm && p.stats.Injections != int64(p.injections):
		c.fail("cold pass executed %d injections, results account for %d", p.stats.Injections, p.injections)
	}
}

// hitRatio is the share of cell requests served without executing.
func hitRatio(s campaign.Stats) float64 {
	served := s.Hits + s.Joins
	return ratio(float64(served), float64(served+s.Runs))
}

// figsTraced alternates untraced and traced passes for the run's time,
// after the layer probes, and derives the per-layer metrics.
func figsTraced(ctx context.Context, e env, warm bool, path string, ref []byte, out *outcome) (*outcome, error) {
	m := out.metrics
	tr := newTracer()
	out.tr = tr
	if err := probes(ctx, e.seed, tr, m); err != nil {
		return nil, err
	}
	if err := fleetProbe(ctx, e, tr, m, &out.check); err != nil {
		return nil, err
	}
	// One untraced warm-up pass, then untraced and traced passes in
	// turn, so both sides of the overhead ratio run in a warm process.
	p, err := runFigsPass(ctx, path, !warm, e.seed, e.nproc, nil)
	if err != nil {
		return nil, err
	}
	if ref == nil {
		ref = p.out
	}
	verifyPass(&out.check, p, ref, warm)
	var plainWalls, tracedWalls []float64
	var passes []*figsPass
	var delta counters
	start := time.Now()
	for len(tracedWalls) == 0 || time.Since(start) < e.seconds {
		p, err := runFigsPass(ctx, path, !warm, e.seed, e.nproc, nil)
		if err != nil {
			return nil, err
		}
		verifyPass(&out.check, p, ref, warm)
		plainWalls = append(plainWalls, p.wall.Seconds())

		before := readCounters()
		p, err = runFigsPass(ctx, path, !warm, e.seed, e.nproc, tr)
		if err != nil {
			return nil, err
		}
		delta = delta.add(readCounters(), before)
		verifyPass(&out.check, p, ref, warm)
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		passes = append(passes, p)
	}
	spans := tr.snapshot()
	var roots []int
	var inPass []span
	var stats campaign.Stats
	var injections, masked int
	var assemble []float64
	for _, p := range passes {
		roots = append(roots, p.root)
		inPass = append(inPass, descendants(spans, p.root)...)
		stats.Hits += p.stats.Hits
		stats.Joins += p.stats.Joins
		stats.Runs += p.stats.Runs
		injections += p.injections
		masked += p.masked
		assemble = append(assemble, float64(p.assemble)/float64(time.Millisecond))
	}
	engineMetrics(m, delta, len(passes), injections, masked)
	m.set("campaign.store_open_ms", median(ms(durations(inPass, "campaign.store_open"))), "ms")
	m.set("campaign.store_get_us", median(us(durations(inPass, "campaign.store_get"))), "us")
	m.set("campaign.store_put_us", median(us(durations(inPass, "campaign.store_put"))), "us")
	m.set("campaign.cache_hit_ratio", hitRatio(stats), "ratio")
	var waits []float64
	for _, r := range roots {
		waits = append(waits, queueWaitMS(descendants(spans, r), "finject.execute")...)
	}
	m.set("campaign.exec_queue_ms_p50", median(waits), "ms")
	m.set("experiment.assemble_ms", median(assemble), "ms")
	m.set("report.render_ms", median(ms(durations(inPass, "report.render"))), "ms")
	shareMetrics(m, spans, roots)
	m.set("trace.overhead_ratio", median(tracedWalls)/median(plainWalls)-1, "ratio")
	out.digest = sha256Hex(ref)
	out.notes = append(out.notes, fmt.Sprintf("traced_passes=%d untraced_passes=%d", len(tracedWalls), len(plainWalls)))
	return out, nil
}

// fleetProbeRounds is the fleet probe's round plan: one warm-up round,
// then untraced and traced rounds in turn.
var fleetProbeRounds = []roundRole{warmup, timed, traced, timed, traced}

// roundRole says what a fleet round is for.
type roundRole int

const (
	timed  roundRole = iota // untraced, the base of the control-plane share
	warmup                  // warms the worker's golden cache; verified only
	traced                  // feeds the service metrics
)

// fleetProbe measures the service, worker and client layers: it boots
// the in-process fleet, drives it with a closed loop of nproc clients
// through the rounds of fleetProbeRounds, then replays every job in
// process, checks the fleet's bytes against the replay and sets the
// service metrics from the traced rounds.
func fleetProbe(ctx context.Context, e env, tr *tracer, m metrics, c *checks) error {
	tr.off.Store(true) // rounds switch it on one at a time
	defer tr.off.Store(false)
	f, err := bootFleet(ctx, e.nproc, tr)
	if err != nil {
		return err
	}
	perRound := e.nproc * jobsPerClient
	var rounds []*fleetRound
	var delta counters
	for i, role := range fleetProbeRounds {
		var before counters
		if role == traced {
			tr.off.Store(false)
			before = readCounters()
		}
		rounds = append(rounds, runFleetRound(ctx, f, e.seed, i*perRound, perRound, e.nproc, tr))
		if role == traced {
			delta = delta.add(readCounters(), before)
			tr.off.Store(true)
		}
	}
	hits := f.sched.Stats().Hits
	f.close()

	sched := campaign.New(campaign.Config{Workers: e.nproc, CampaignWorkers: 1})
	var fleetWall, localWall time.Duration
	var tracedCells int
	for i, r := range rounds {
		first := i * perRound
		want, wantErr, localT := inProcessRound(ctx, sched, e.seed, first, perRound, e.nproc)
		c.merge(verifyRound(r, want, wantErr, e.seed, first))
		switch fleetProbeRounds[i] {
		case traced:
			tracedCells += r.cells
		case timed:
			fleetWall += r.wall
			localWall += localT
		}
	}
	c.attempted++
	if hits != 0 {
		c.fail("fleet served %d cells from its store; every job should be fresh", hits)
	}

	spans := tr.snapshot()
	requests := 0
	for _, s := range spans {
		if s.Layer == "service" {
			requests++
		}
	}
	m.set("service.submit_ms_p50", median(ms(durations(spans, "service.submit"))), "ms")
	m.set("service.lease_ms_p50", median(ms(durations(spans, "service.lease"))), "ms")
	m.set("service.complete_ms_p50", median(ms(durations(spans, "service.complete"))), "ms")
	m.set("service.requests_per_cell", ratio(float64(requests), float64(tracedCells)), "count")
	m.set("service.control_plane_share", 1-ratio(localWall.Seconds(), fleetWall.Seconds()), "ratio")
	m.set("campaign.lease_grants_per_cell", ratio(float64(delta.leases), float64(tracedCells)), "count")
	return nil
}
