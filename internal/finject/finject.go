// Package finject is the statistical fault-injection campaign engine —
// the core of what GUFI (NVIDIA/GPGPU-Sim) and SIFI (AMD/Multi2Sim) do in
// the paper. A campaign samples N single-bit faults uniformly over the
// (bit, cycle) population of one hardware structure of one chip running
// one benchmark, classifies each against the golden run (Masked / SDC /
// DUE / Timeout), and reports the AVF with its confidence interval. A
// fault whose entry the golden run never reads at or after the fault
// cycle is Masked by construction and is classified without simulation;
// every other fault is simulated, resuming from the golden run's nearest
// checkpoint below the fault cycle.
//
// Campaigns are deterministic: fault #i is derived from (Seed, i) only,
// so results are independent of the worker count and the scheduling
// order.
package finject

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// DefaultInjections is the paper's per-structure sample size (2,000
// faults: 2.88% error margin at 99% confidence).
const DefaultInjections = 2000

// DefaultWatchdogFactor bounds a faulty run at this multiple of the
// golden cycle count before declaring a hang.
const DefaultWatchdogFactor = 20

// DefaultConfidence is the confidence level of the adaptive stopping
// rule when Policy.Confidence is unset (the paper evaluates at 99%).
const DefaultConfidence = 0.99

// adaptiveFirstRound is the size of the first adaptive round. Later
// rounds double the completed count, so the interval is recomputed at
// 100, 200, 400, ... injections — a deterministic schedule that does not
// depend on the worker count.
const adaptiveFirstRound = 100

// Policy controls how a campaign executes its injections: the size of
// the worker pool and, when Margin is set, adaptive sampling. A policy
// never changes which fault injection #i draws — that is fixed by
// (Seed, i) — so two policies that end up running the same number of
// injections produce bit-identical results.
//
// Policy is a frozen compatibility shim: the engine consumes it
// internally, but external producers construct campaigns through the
// versioned Config (see config.go), which is where any new execution
// knob lands. Do not add fields here.
type Policy struct {
	// Workers bounds the parallel simulations (GOMAXPROCS when 0).
	Workers int
	// Margin, when > 0, enables adaptive sampling: injections run in
	// deterministic rounds and the campaign stops at the end of the first
	// round whose Wilson interval half-width is at most Margin at the
	// policy's confidence level, or at the cap.
	Margin float64
	// Confidence is the adaptive stopping rule's confidence level
	// (DefaultConfidence when 0).
	Confidence float64
	// MaxInjections caps the campaign; when 0 the cap is
	// Campaign.Injections (DefaultInjections when that is also 0).
	MaxInjections int
	// Checkpoint configures checkpointed fast-forward execution (see
	// checkpoint.go). The zero value enables it with an auto-sized
	// interval; it is an execution knob only and never changes results.
	Checkpoint Checkpoint
}

// Adaptive reports whether the policy requests adaptive sampling.
func (p Policy) Adaptive() bool { return p.Margin > 0 }

// Cap resolves the campaign's injection budget against the campaign's
// own Injections field: MaxInjections wins, then injections, then
// DefaultInjections.
func (p Policy) Cap(injections int) int {
	if p.MaxInjections > 0 {
		return p.MaxInjections
	}
	if injections > 0 {
		return injections
	}
	return DefaultInjections
}

// confidence resolves the stopping rule's confidence level.
func (p Policy) confidence() float64 {
	if p.Confidence <= 0 || p.Confidence >= 1 {
		return DefaultConfidence
	}
	return p.Confidence
}

// SatisfiedBy reports whether an existing result already answers a
// request for this policy with the given cap: a fixed-size request needs
// the full cap, while an adaptive request also accepts any result whose
// interval half-width is within the margin. This is what lets a cached
// cell measured at a tighter margin serve looser requests without
// re-running.
func (p Policy) SatisfiedBy(res *Result, limit int) bool {
	if res == nil {
		return false
	}
	if res.Injections >= limit {
		return true
	}
	if !p.Adaptive() {
		return false
	}
	hw, err := res.HalfWidth(p.confidence())
	return err == nil && hw <= p.Margin
}

// Campaign describes one statistical fault-injection experiment.
type Campaign struct {
	Chip      *chips.Chip
	Benchmark *workloads.Benchmark
	Structure gpu.Structure
	// Injections is the number of faults (DefaultInjections when 0). An
	// adaptive policy treats it as the hard cap and may stop earlier.
	Injections int
	// Seed selects the fault sample; campaigns with equal seeds are
	// bit-for-bit reproducible.
	Seed uint64
	// Policy sets the execution policy: worker pool size and, when its
	// Margin is set, adaptive early stopping. The zero Policy runs
	// exactly Injections faults on GOMAXPROCS workers.
	Policy Policy
	// WatchdogFactor overrides DefaultWatchdogFactor when > 0.
	WatchdogFactor int
	// Detail records every injection's fault site, outcome and SDC
	// severity in Result.Records (costs memory proportional to N).
	Detail bool
	// FaultWidth sets the burst width in adjacent bits (values < 2 give
	// the paper's single-bit model).
	FaultWidth uint
	// Golden supplies a precomputed fault-free reference run (see
	// NewGolden). It must come from the same chip and benchmark as the
	// campaign; when nil the campaign executes its own reference run.
	// Sharing one Golden across the campaigns of all structures of a
	// (chip, benchmark) pair removes the redundant reference simulations.
	Golden *Golden
}

// Record is one injection's detailed result (Campaign.Detail).
type Record struct {
	Fault   gpu.Fault
	Outcome gpu.Outcome
	// CorruptBytes counts output bytes differing from the golden run
	// (SDC severity; zero unless the outcome is SDC).
	CorruptBytes int
}

// Result aggregates a campaign.
type Result struct {
	// Outcomes counts per outcome class, indexed by gpu.Outcome.
	Outcomes [gpu.NumOutcomes]int
	// Injections is the realized sample size.
	Injections int
	// GoldenStats is the fault-free execution's statistics.
	GoldenStats gpu.RunStats
	// Occupancy is the time-weighted structure occupancy of the golden
	// run (the red line of Figs. 1 and 2).
	Occupancy float64
	// Records holds per-injection details when Campaign.Detail is set,
	// indexed by injection number (deterministic across worker counts).
	Records []Record
}

// AVF returns the fault-injection AVF: the fraction of injections that
// were not masked (SDC + DUE + Timeout).
func (r *Result) AVF() float64 {
	if r.Injections == 0 {
		return 0
	}
	fails := r.Injections - r.Outcomes[gpu.OutcomeMasked]
	return float64(fails) / float64(r.Injections)
}

// AVFInterval returns the Wilson confidence interval of the AVF.
func (r *Result) AVFInterval(confidence float64) (lo, hi float64, err error) {
	p := stats.Proportion{
		Successes: r.Injections - r.Outcomes[gpu.OutcomeMasked],
		Trials:    r.Injections,
	}
	return p.Interval(confidence)
}

// HalfWidth returns the half-width of the AVF's Wilson interval — the
// quantity the adaptive stopping rule drives below Policy.Margin.
func (r *Result) HalfWidth(confidence float64) (float64, error) {
	p := stats.Proportion{
		Successes: r.Injections - r.Outcomes[gpu.OutcomeMasked],
		Trials:    r.Injections,
	}
	return p.HalfWidth(confidence)
}

// Golden is a reusable fault-free reference run of one (chip, benchmark)
// pair. Every campaign needs one to classify outcomes against; campaigns
// that target different structures of the same pair can share a single
// Golden through Campaign.Golden instead of each re-simulating the
// reference execution. It holds the run's outputs, its read-liveness
// summary and its checkpoint ladders in memory; none of them outlives
// the process.
type Golden struct {
	chip     string
	bench    string
	chipRef  *chips.Chip
	benchRef *workloads.Benchmark
	g        *golden

	// The default checkpoint ladder is captured during the reference run
	// itself; ladders for explicit interval overrides are built lazily
	// (one extra fault-free run each) and cached. All ladders are
	// immutable once published and shared read-only by every worker:
	// readers load the current map through an atomic pointer and never
	// lock, writers clone-and-swap the map under mu.
	mu      sync.Mutex
	ladders atomic.Pointer[map[int64]*ladderCall]
}

// ladderMap returns the current immutable ladder map.
func (g *Golden) ladderMap() map[int64]*ladderCall { return *g.ladders.Load() }

// publishLadders installs next as the current ladder map. Callers hold
// g.mu and must treat previously published maps as frozen.
func (g *Golden) publishLadders(next map[int64]*ladderCall) { g.ladders.Store(&next) }

// ladderCall is one ladder build others may wait on, so a slow override
// build never holds the Golden's mutex while it simulates.
type ladderCall struct {
	done  chan struct{}
	snaps []gpu.Snapshot
	err   error
}

// readyLadder wraps an already-built ladder.
func readyLadder(snaps []gpu.Snapshot) *ladderCall {
	lc := &ladderCall{done: make(chan struct{}), snaps: snaps}
	close(lc.done)
	return lc
}

// NewGolden executes the fault-free reference run once, for reuse across
// campaigns via Campaign.Golden. The run also captures the default
// checkpoint ladder (auto-sized snapshot spacing) that fast-forwarded
// injections restore from.
func NewGolden(chip *chips.Chip, bench *workloads.Benchmark) (*Golden, error) {
	if chip == nil || bench == nil {
		return nil, errors.New("finject: golden run needs a chip and a benchmark")
	}
	g, err := runGolden(chip, bench, Checkpoint{}, true)
	if err != nil {
		return nil, err
	}
	gold := &Golden{
		chip: chip.Name, bench: bench.Name,
		chipRef: chip, benchRef: bench, g: g,
	}
	gold.publishLadders(map[int64]*ladderCall{0: readyLadder(g.ladder)})
	return gold, nil
}

// CheckpointCycles returns the capture cycles of the default checkpoint
// ladder, in ascending order — introspection for tests and reports.
func (g *Golden) CheckpointCycles() []int64 {
	lc := g.ladderMap()[0]
	<-lc.done
	cycles := make([]int64, len(lc.snaps))
	for i, s := range lc.snaps {
		cycles[i] = s.Cycle()
	}
	return cycles
}

// ladderFor returns the checkpoint ladder for the configuration,
// building and caching one per distinct interval on first use. A nil
// ladder (checkpointing off) makes every injection replay in full.
// The cached-ladder fast path is lock-free (an atomic load of the
// immutable map); builds run outside the writer mutex (only the leader
// simulates; concurrent requesters for the same interval wait on it,
// other intervals and the default ladder are never blocked); failed
// builds are not cached.
func (g *Golden) ladderFor(cfg Checkpoint) ([]gpu.Snapshot, error) {
	if cfg.Off {
		return nil, nil
	}
	if cfg.Interval < 0 {
		cfg.Interval = 0 // defensive: negative means auto, not a new cache entry
	}
	if lc, ok := g.ladderMap()[cfg.Interval]; ok {
		<-lc.done
		return lc.snaps, lc.err
	}
	g.mu.Lock()
	lc, ok := g.ladderMap()[cfg.Interval]
	if !ok {
		lc = &ladderCall{done: make(chan struct{})}
		g.publishLadders(withLadder(g.ladderMap(), cfg.Interval, lc))
	}
	g.mu.Unlock()
	if ok {
		<-lc.done
		return lc.snaps, lc.err
	}

	// Only the ladder is kept: campaigns prune with the default golden's
	// liveness summary, so this run records none.
	run, err := runGolden(g.chipRef, g.benchRef, cfg, false)
	if err != nil {
		lc.err = err
		g.mu.Lock()
		// Republish without the failed entry so a later request retries.
		next := withLadder(g.ladderMap(), cfg.Interval, nil)
		delete(next, cfg.Interval)
		g.publishLadders(next)
		g.mu.Unlock()
	} else {
		lc.snaps = run.ladder
	}
	close(lc.done)
	return lc.snaps, lc.err
}

// withLadder clones a frozen ladder map with one entry replaced.
func withLadder(m map[int64]*ladderCall, interval int64, lc *ladderCall) map[int64]*ladderCall {
	next := make(map[int64]*ladderCall, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	next[interval] = lc
	return next
}

// Chip returns the name of the chip the reference was run on.
func (g *Golden) Chip() string { return g.chip }

// Benchmark returns the name of the benchmark the reference executed.
func (g *Golden) Benchmark() string { return g.bench }

// Cycles returns the reference execution length in device cycles.
func (g *Golden) Cycles() int64 { return g.g.cycles }

// Stats returns the reference execution's statistics.
func (g *Golden) Stats() gpu.RunStats { return g.g.stats }

// golden holds the reference run against which outcomes are classified,
// plus the checkpoint ladder and the read-liveness summary captured
// during that run.
type golden struct {
	outputs []gpu.Region
	bytes   [][]byte
	cycles  int64
	stats   gpu.RunStats
	ladder  []gpu.Snapshot
	// live is nil when pruning is unavailable: a golden run without
	// recordLive, or one too long for the liveness encoding.
	live *liveness
}

// runGolden executes the fault-free reference run. The run captures the
// checkpoint ladder along the way unless ckpt.Off, and the read-liveness
// summary if recordLive; it is the only source of either.
func runGolden(chip *chips.Chip, bench *workloads.Benchmark, ckpt Checkpoint, recordLive bool) (*golden, error) {
	defer telemetry.StartSpan(context.Background(), "golden_run")()
	d, err := devices.New(chip)
	if err != nil {
		return nil, err
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		return nil, err
	}
	var lb *ladderBuilder
	if !ckpt.Off {
		lb = newLadderBuilder(ckpt)
		lb.arm(d)
	}
	var live *liveness
	if recordLive {
		live = newLiveness(d.Units())
		d.SetTracer(live)
	}
	if err := hp.Run(d); err != nil {
		return nil, fmt.Errorf("finject: golden run of %s on %s failed: %w", bench.Name, chip.Name, err)
	}
	d.SetCheckpointHook(0, nil)
	d.SetTracer(nil)
	g := &golden{outputs: hp.Outputs(), stats: d.Stats()}
	if g.stats.Cycles <= maxLivenessCycle {
		g.live = live
	}
	if lb != nil {
		g.ladder = lb.snaps
		telemetry.LadderBuilds.Inc()
		telemetry.LadderSnapshots.Add(int64(len(lb.snaps)))
		var ladderBytes int64
		for _, s := range lb.snaps {
			ladderBytes += s.SizeBytes()
		}
		telemetry.LadderBytes.Add(ladderBytes)
	}
	g.cycles = g.stats.Cycles
	if g.cycles <= 0 {
		return nil, fmt.Errorf("finject: golden run of %s reported no cycles", bench.Name)
	}
	for _, r := range g.outputs {
		bs, err := d.Mem().ReadBytes(r.Addr, int(r.Size))
		if err != nil {
			return nil, err
		}
		g.bytes = append(g.bytes, bs)
	}
	return g, nil
}

// sampleFault draws fault #idx of the campaign.
func sampleFault(rng *stats.RNG, c Campaign, cycles int64, idx uint64) gpu.Fault {
	r := rng.Derive(idx)
	return gpu.Fault{
		Structure: c.Structure,
		Unit:      r.Intn(c.Chip.Units),
		Entry:     r.Intn(c.Chip.StructSize(c.Structure)),
		Bit:       uint(r.Intn(gpu.EntryBits(c.Structure))),
		Width:     c.FaultWidth,
		Cycle:     int64(r.Uint64n(uint64(cycles))),
	}
}

// classifyCost is one injection's execution-cost accounting, consumed by
// the telemetry counters: whether a checkpoint rung was restored, how
// many fault-free cycles the restore skipped, how many cycles the run
// actually simulated, and how many COW memory pages the restore copied
// versus skipped by identity. It never feeds back into outcomes.
type classifyCost struct {
	restored    bool
	ffCycles    int64
	simCycles   int64
	pagesCopied int64
	pagesShared int64
}

// classify runs one injection on a worker-owned device and host program,
// returning the outcome, (for SDCs) the number of corrupted output
// bytes, and the run's cost accounting. When the ladder holds a snapshot
// at or below the fault cycle, the run fast-forwards from it instead of
// replaying the fault-free prefix; the pre-fault execution is identical
// either way, so the outcome is too (proven by the differential
// equivalence suite).
func classify(d gpu.Device, hp *gpu.HostProgram, g *golden, ladder []gpu.Snapshot, f gpu.Fault, watchdog int64) (gpu.Outcome, int, classifyCost) {
	var cost classifyCost
	if snap := latestBelow(ladder, f.Cycle); snap != nil {
		rc, _ := d.(gpu.RestoreCoster)
		var c0, s0 int64
		if rc != nil {
			c0, s0 = rc.RestorePageStats()
		}
		if d.Restore(snap) == nil {
			cost.restored = true
			cost.ffCycles = snap.Cycle()
			if rc != nil {
				c1, s1 := rc.RestorePageStats()
				cost.pagesCopied = c1 - c0
				cost.pagesShared = s1 - s0
			}
		}
	}
	if !cost.restored {
		d.Reset()
	}
	d.SetWatchdog(watchdog)
	d.InjectFault(&f)
	err := hp.Run(d)
	if sim := d.Stats().Cycles - cost.ffCycles; sim > 0 {
		cost.simCycles = sim
	}
	switch {
	case errors.Is(err, gpu.ErrWatchdog):
		return gpu.OutcomeTimeout, 0, cost
	case err != nil:
		return gpu.OutcomeDUE, 0, cost
	}
	outs := hp.Outputs()
	if len(outs) != len(g.outputs) {
		return gpu.OutcomeDUE, 0, cost
	}
	corrupt := 0
	for i, r := range outs {
		bs, err := d.Mem().ReadBytes(r.Addr, int(r.Size))
		if err != nil {
			return gpu.OutcomeDUE, 0, cost
		}
		if !bytes.Equal(bs, g.bytes[i]) {
			corrupt += diffBytes(bs, g.bytes[i])
		}
	}
	if corrupt > 0 {
		return gpu.OutcomeSDC, corrupt, cost
	}
	return gpu.OutcomeMasked, 0, cost
}

// diffBytes counts positions where the two equal-length slices differ.
func diffBytes(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// Run executes the campaign to completion.
func Run(c Campaign) (*Result, error) {
	return RunContext(context.Background(), c)
}

// injector is one worker's private device replica: a full simulator
// instance plus host program, reused across every injection (and every
// adaptive round) the worker executes. Workers never share a device —
// the only shared state during a round is the immutable golden/ladder.
type injector struct {
	d  gpu.Device
	hp *gpu.HostProgram
}

// replicaPools caches injector replicas per (chip, benchmark) so
// back-to-back campaigns over the same pair (every structure of a
// figure, every cell of a sweep) stop paying device construction and
// first-restore page faults. Entries are sync.Pools, so idle replicas
// are reclaimable by the GC.
var replicaPools sync.Map // string -> *sync.Pool

// replicaKey identifies the replica pool for a campaign's (chip,
// benchmark) pair.
func replicaKey(c Campaign) string { return c.Chip.Name + "\x00" + c.Benchmark.Name }

// acquireReplica returns a pooled injector for the campaign or builds a
// fresh one. Every injection path resets or restores the device before
// running, so recycled simulator state is never observable.
func acquireReplica(c Campaign) (*injector, error) {
	p, _ := replicaPools.LoadOrStore(replicaKey(c), &sync.Pool{})
	if in, ok := p.(*sync.Pool).Get().(*injector); ok {
		return in, nil
	}
	d, err := devices.New(c.Chip)
	if err != nil {
		return nil, err
	}
	hp, err := c.Benchmark.New(c.Chip.Vendor)
	if err != nil {
		return nil, err
	}
	return &injector{d: d, hp: hp}, nil
}

// releaseReplicas returns a campaign's worker replicas to its pool.
func releaseReplicas(c Campaign, pool []*injector) {
	p, _ := replicaPools.LoadOrStore(replicaKey(c), &sync.Pool{})
	for _, in := range pool {
		if in != nil {
			p.(*sync.Pool).Put(in)
		}
	}
}

// RunContext executes the campaign, stopping promptly when ctx is
// canceled: no further injections are scheduled once cancellation is
// observed. On cancellation it returns the partial result accumulated so
// far (nil when canceled before the reference run) together with an error
// wrapping ctx.Err(); Result.Injections then reflects the number of
// injections actually performed, and with Campaign.Detail set Records is
// truncated to the injections that ran.
//
// With an adaptive policy (Policy.Margin > 0) injections run in
// deterministic rounds; after each round the AVF's Wilson interval is
// recomputed and the campaign stops once its half-width reaches the
// margin, or at the cap. The round schedule depends only on completed
// injection counts, never on the worker count, so a fixed seed yields
// bit-identical results for any Policy.Workers.
func RunContext(ctx context.Context, c Campaign) (*Result, error) {
	if c.Chip == nil || c.Benchmark == nil {
		return nil, errors.New("finject: campaign needs a chip and a benchmark")
	}
	limit := c.Policy.Cap(c.Injections)
	workers := c.Policy.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > limit {
		workers = limit
	}
	wdFactor := c.WatchdogFactor
	if wdFactor <= 0 {
		wdFactor = DefaultWatchdogFactor
	}
	var (
		g      *golden
		ladder []gpu.Snapshot
	)
	if c.Golden != nil {
		if c.Golden.chip != c.Chip.Name || c.Golden.bench != c.Benchmark.Name {
			return nil, fmt.Errorf("finject: golden run is for %s/%s, campaign targets %s/%s",
				c.Golden.chip, c.Golden.bench, c.Chip.Name, c.Benchmark.Name)
		}
		g = c.Golden.g
		var err error
		if ladder, err = c.Golden.ladderFor(c.Policy.Checkpoint); err != nil {
			return nil, err
		}
	} else {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("finject: campaign canceled before the reference run: %w", err)
		}
		var err error
		g, err = runGolden(c.Chip, c.Benchmark, c.Policy.Checkpoint, !c.Policy.Checkpoint.Off)
		if err != nil {
			return nil, err
		}
		ladder = g.ladder
	}
	watchdog := g.cycles*int64(wdFactor) + 10_000
	// The reference engine (checkpointing off) simulates every injection.
	live := g.live
	if c.Policy.Checkpoint.Off {
		live = nil
	}

	res := &Result{
		GoldenStats: g.stats,
		Occupancy:   g.stats.Occupancy(c.Structure, int64(c.Chip.Units)*int64(c.Chip.StructSize(c.Structure))),
	}
	if c.Detail {
		res.Records = make([]Record, limit)
	}
	baseRNG := stats.NewRNG(c.Seed)

	// Workers take their replica at their first simulated injection, so
	// a campaign whose every fault is pruned never touches a device.
	pool := make([]*injector, workers)
	defer releaseReplicas(c, pool)

	done := 0
	for done < limit {
		end := limit
		if c.Policy.Adaptive() {
			end = done * 2
			if end < adaptiveFirstRound {
				end = adaptiveFirstRound
			}
			if end > limit {
				end = limit
			}
		}
		endSpan := telemetry.StartSpan(ctx, "injection_round")
		ran, err := runRound(ctx, c, pool, g, ladder, live, watchdog, baseRNG, done, end, res)
		endSpan()
		if err != nil {
			return nil, err
		}
		telemetry.InjectRounds.Inc()
		done += ran
		if done < end {
			res.Injections = done
			if res.Records != nil {
				res.Records = res.Records[:done]
			}
			return res, fmt.Errorf("finject: campaign canceled after %d/%d injections: %w", done, limit, ctx.Err())
		}
		if c.Policy.Adaptive() {
			res.Injections = done
			hw, err := res.HalfWidth(c.Policy.confidence())
			if err != nil {
				return nil, err
			}
			if hw <= c.Policy.Margin {
				if done < limit {
					telemetry.InjectEarlyStops.Inc()
				}
				break
			}
		}
	}
	res.Injections = done
	if res.Records != nil {
		res.Records = res.Records[:done]
	}
	return res, nil
}

// runRound executes injections [start, end) across the worker pool and
// reports how many completed. Indices are handed out through an atomic
// counter and every handed-out index is classified, so on cancellation
// the completed injections are exactly the contiguous prefix
// [start, start+ran). A fault whose entry the golden run never reads at
// or after the fault cycle is classified Masked from the liveness
// summary without touching a device (a nil live simulates every fault).
// Worker w simulates on pool[w], acquiring it on first use; the only
// error is a failure to build that replica.
func runRound(ctx context.Context, c Campaign, pool []*injector, g *golden, ladder []gpu.Snapshot, live *liveness, watchdog int64, rng *stats.RNG, start, end int, res *Result) (int, error) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		ran  int
		errs = make([]error, len(pool))
	)
	next.Store(int64(start))
	for w := range pool {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Telemetry accumulates in worker-locals and flushes once per
			// round, so the per-injection hot loop costs no atomics.
			var (
				local    [gpu.NumOutcomes]int
				count    int
				pruned   int64
				restores int64
				replays  int64
				ffCyc    int64
				simCyc   int64
				pgCopied int64
				pgShared int64
			)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= end {
					break
				}
				f := sampleFault(rng, c, g.cycles, uint64(i))
				o, corrupt, cost := gpu.OutcomeMasked, 0, classifyCost{}
				if live != nil && !live.readFrom(f) {
					pruned++
				} else {
					if pool[w] == nil {
						if pool[w], errs[w] = acquireReplica(c); errs[w] != nil {
							break
						}
					}
					o, corrupt, cost = classify(pool[w].d, pool[w].hp, g, ladder, f, watchdog)
					if cost.restored {
						restores++
					} else {
						replays++
					}
				}
				local[o]++
				count++
				ffCyc += cost.ffCycles
				simCyc += cost.simCycles
				pgCopied += cost.pagesCopied
				pgShared += cost.pagesShared
				if res.Records != nil {
					res.Records[i] = Record{Fault: f, Outcome: o, CorruptBytes: corrupt}
				}
			}
			telemetry.Injections.Add(int64(count))
			telemetry.InjectPruned.Add(pruned)
			telemetry.CkptRestores.Add(restores)
			telemetry.FullReplays.Add(replays)
			telemetry.FastForwardCycles.Add(ffCyc)
			telemetry.SimulatedCycles.Add(simCyc)
			telemetry.RestorePagesCopied.Add(pgCopied)
			telemetry.RestorePagesShared.Add(pgShared)
			mu.Lock()
			for o, cnt := range local {
				res.Outcomes[o] += cnt
			}
			ran += count
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return ran, errors.Join(errs...)
}
