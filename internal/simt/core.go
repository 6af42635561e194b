// Package simt is the vendor-neutral SIMT machinery shared by the two
// simulators, internal/nvsim (NVIDIA SMs, thread blocks, warps) and
// internal/amdsim (AMD CUs, workgroups, wavefronts). One Core holds a
// chip's units, device memory, statistics and the rules both vendors
// must apply identically for the paper's comparison to be fair:
// residency and block dispatch, the round-robin/GTO issue scan, block
// retirement with occupancy accounting, fault application, the watchdog,
// and checkpoint capture, restore and encoding.
//
// A vendor package supplies only its ISA through the ISA hook set: the
// per-warp architectural state S (stored inline in every Warp), the
// instruction issue/execute step, per-warp initialisation at dispatch,
// and copy/encode/decode of S. The core makes at most one dynamic call
// per warp issue attempt (ISA.Issue); everything per lane stays in the
// vendor's statically compiled execute code.
//
// The names follow NVIDIA terms (unit = SM/CU, block = thread block or
// workgroup, warp = warp or wavefront).
package simt

import (
	"fmt"
	"math"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/wire"
)

// DefaultWatchdog is the per-launch cycle budget when none is set.
const DefaultWatchdog = 50_000_000

// never is the "no wake-up pending" sentinel of the issue scan.
const never = int64(1) << 62

// ISA is the vendor hook set. S is the ISA's per-warp architectural
// state; the core stores it inline in Warp.Arch and never looks inside.
type ISA[S any] interface {
	// Bind type-checks the launch's kernel and binds it for the launch
	// loop. It returns the number of argument words the kernel reads.
	Bind(k gpu.Kernel) (argWords int, err error)
	// Issue attempts to issue w's next instruction at the core's
	// current cycle. It returns whether it issued and, when it did not,
	// the cycle at which the blocking dependency clears (0 when none).
	Issue(u *Unit[S], w *Warp[S]) (ok bool, wake int64, err error)
	// InitWarp resets w.Arch for a freshly dispatched warp whose real
	// lanes are valid. The shared Warp fields are already initialised;
	// register preloads it performs are ordinary traced writes.
	InitWarp(u *Unit[S], w *Warp[S], valid uint64)
	// CopyWarp deep-copies src into dst, reusing dst's slice capacity.
	CopyWarp(dst, src *S)
	// EncodeWarp appends one warp's snapshot record: the shared fields
	// and the ISA state in the vendor's wire layout.
	EncodeWarp(w *wire.Writer, wp *Warp[S])
	// DecodeWarp reads one record written by EncodeWarp into wp, which
	// is zero. Read errors are left on r; the returned error reports
	// implausible values only.
	DecodeWarp(r *wire.Reader, wp *Warp[S]) error
}

// Warp is one warp (wavefront): the scheduling state the core manages
// plus the ISA's architectural state.
type Warp[S any] struct {
	Blk        *Block[S]
	Idx        int // warp index within the block
	PC         int
	RegReady   []int64 // scoreboard: per architectural vector register
	AtBarrier  bool
	Done       bool
	WakeAt     int64 // earliest cycle worth re-examining this warp
	ThreadBase int   // linear thread id of lane 0 within the block
	Arch       S
}

// BlockInfo is the placement and progress of one resident block.
type BlockInfo struct {
	ID                    int // linear block id in the grid
	X, Y                  int // block coordinates in the grid
	Slot                  int
	RegBase, RegCount     int
	LocalBase, LocalCount int
	Live                  int // warps not yet done
	Arrived               int // warps waiting at the barrier
	AllocCycle            int64
}

// Block is one resident thread block (workgroup).
type Block[S any] struct {
	BlockInfo
	Warps []*Warp[S]
}

// Unit is one SM (CU): its physical register file and local memory, its
// slot table and its issue-scheduler state.
type Unit[S any] struct {
	ID        int
	Regs      []uint32
	Local     []byte
	blocks    []*Block[S] // resident blocks (slot index = position)
	slots     []bool      // slot occupancy
	liveWarps int         // resident non-retired warps
	rr        int         // round-robin issue pointer
	greedy    *Warp[S]    // GTO: warp that issued most recently

	// order is the issue scan's scratch slice, rebuilt every cycle; a
	// per-cycle allocation here was once ~95% of the bytes allocated
	// by a whole campaign.
	order []*Warp[S]
	// free recycles retired blocks (with their warp objects and
	// per-warp slices) so dispatch and restore stop allocating; every
	// field is rewritten on reuse.
	free []*Block[S]
}

// takeBlock returns a recycled block or a fresh one. The caller must
// initialise every field; recycled warps carry stale values.
func (u *Unit[S]) takeBlock() *Block[S] {
	if n := len(u.free); n > 0 {
		blk := u.free[n-1]
		u.free[n-1] = nil
		u.free = u.free[:n-1]
		return blk
	}
	return &Block[S]{}
}

// recycleBlocks moves every resident block to the freelist and clears
// the slot table.
func (u *Unit[S]) recycleBlocks() {
	for slot, blk := range u.blocks {
		if blk != nil {
			u.free = append(u.free, blk)
			u.blocks[slot] = nil
		}
		u.slots[slot] = false
	}
}

// sizeTables sets the slot tables to n empty slots, reusing capacity.
func (u *Unit[S]) sizeTables(n int) {
	u.recycleBlocks()
	if cap(u.blocks) >= n {
		u.blocks = u.blocks[:n]
		clear(u.blocks)
	} else {
		u.blocks = make([]*Block[S], n)
	}
	if cap(u.slots) >= n {
		u.slots = u.slots[:n]
		clear(u.slots)
	} else {
		u.slots = make([]bool, n)
	}
	u.rr = 0
	u.greedy = nil
	u.liveWarps = 0
}

// sizeWarps resizes blk.Warps to n, reviving recycled warp objects
// within the retained capacity and allocating the rest.
func (blk *Block[S]) sizeWarps(n int) {
	if cap(blk.Warps) >= n {
		blk.Warps = blk.Warps[:n]
	} else {
		old := blk.Warps[:cap(blk.Warps)]
		blk.Warps = make([]*Warp[S], n)
		copy(blk.Warps, old)
	}
	for i, w := range blk.Warps {
		if w == nil {
			blk.Warps[i] = &Warp[S]{}
		}
	}
}

// LaunchCtx is the geometry of the launch in flight.
type LaunchCtx struct {
	Args          []uint32
	Grid, Group   gpu.Dim3
	Threads       int // threads per block
	WarpsPerBlock int
	RegsPerThread int
	RegsPerBlock  int
	LocalPerBlock int
}

// Core is one simulated GPU minus its ISA. It implements gpu.Device,
// gpu.RestoreCoster and gpu.SnapshotCodec; a vendor package embeds it
// and hands MakeCore its ISA hooks.
type Core[S any] struct {
	// Chip, Memory, Tracer, Cycle, Counters and LC are the state the
	// vendor's execute code reads and updates directly.
	Chip     *chips.Chip
	Memory   *gpu.Memory
	Tracer   gpu.Tracer
	Cycle    int64 // global device cycle, monotonic across launches
	Counters gpu.RunStats
	LC       LaunchCtx

	name  string // error prefix, e.g. "nvsim"
	isa   ISA[S]
	units []*Unit[S]

	fault        *gpu.Fault
	faultApplied bool
	watchdog     int64

	// Checkpoint hook (armed on golden runs only; see snapshot.go).
	ckptFn   func(s gpu.Snapshot) int64
	ckptNext int64
	// resume is non-nil between Restore and the fast-forward re-entry.
	resume *resumeState
}

// MakeCore builds the core of a device for chip, which the caller has
// validated. name prefixes error messages; isa is the vendor hook set.
func MakeCore[S any](chip *chips.Chip, name string, isa ISA[S]) Core[S] {
	c := Core[S]{
		Chip:     chip,
		Memory:   gpu.NewMemory(chip.GlobalMemBytes),
		name:     name,
		isa:      isa,
		watchdog: DefaultWatchdog,
	}
	c.units = make([]*Unit[S], chip.Units)
	for i := range c.units {
		c.units[i] = &Unit[S]{
			ID:    i,
			Regs:  make([]uint32, chip.RegsPerUnit),
			Local: make([]byte, chip.LocalBytesPerUnit),
		}
	}
	return c
}

// Name implements gpu.Device.
func (c *Core[S]) Name() string { return c.Chip.Name }

// Vendor implements gpu.Device.
func (c *Core[S]) Vendor() gpu.Vendor { return c.Chip.Vendor }

// Mem implements gpu.Device.
func (c *Core[S]) Mem() *gpu.Memory { return c.Memory }

// Stats implements gpu.Device.
func (c *Core[S]) Stats() gpu.RunStats { return c.Counters }

// Units implements gpu.Device.
func (c *Core[S]) Units() int { return c.Chip.Units }

// RestorePageStats implements gpu.RestoreCoster: cumulative COW page
// copy/skip counts from snapshot restores into this device's memory.
func (c *Core[S]) RestorePageStats() (copied, shared int64) { return c.Memory.RestorePageStats() }

// StructSize implements gpu.Device.
func (c *Core[S]) StructSize(st gpu.Structure) int { return c.Chip.StructSize(st) }

// StructBits implements gpu.Device.
func (c *Core[S]) StructBits(st gpu.Structure) int64 { return c.Chip.StructBits(st) }

// ClockGHz implements gpu.Device.
func (c *Core[S]) ClockGHz() float64 { return c.Chip.ClockGHz }

// InjectFault implements gpu.Device.
func (c *Core[S]) InjectFault(f *gpu.Fault) {
	c.fault = f
	c.faultApplied = false
}

// SetTracer implements gpu.Device.
func (c *Core[S]) SetTracer(t gpu.Tracer) { c.Tracer = t }

// SetWatchdog implements gpu.Device.
func (c *Core[S]) SetWatchdog(maxCycles int64) {
	if maxCycles <= 0 {
		maxCycles = DefaultWatchdog
	}
	c.watchdog = maxCycles
}

// Reset implements gpu.Device.
func (c *Core[S]) Reset() {
	c.Memory.Reset()
	for _, u := range c.units {
		clear(u.Regs)
		clear(u.Local)
		u.sizeTables(0)
		u.order = u.order[:0]
	}
	c.Counters = gpu.RunStats{}
	c.Cycle = 0
	c.fault = nil
	c.faultApplied = false
	c.Tracer = nil
	c.watchdog = DefaultWatchdog
	c.ckptFn = nil
	c.ckptNext = 0
	c.resume = nil
}

// Launch implements gpu.Device: it synchronously executes one kernel
// launch, advancing the device cycle counter. Under an armed
// fast-forward (see Restore) launches the snapshot already completed
// return immediately and the interrupted launch resumes mid-loop.
func (c *Core[S]) Launch(spec gpu.LaunchSpec) error {
	argWords, err := c.isa.Bind(spec.Kernel)
	if err != nil {
		return err
	}
	if r := c.resume; r != nil {
		if r.skip > 0 {
			r.skip--
			return nil
		}
		// This is the launch the snapshot interrupted (or, for a
		// between-launch snapshot, the first launch after it): leave
		// replay mode and continue from the restored state.
		c.resume = nil
		c.Memory.EndReplay()
		if in := r.inflight; in != nil {
			if _, err := c.prepare(spec, argWords); err != nil {
				return err
			}
			return c.launchLoop(spec.Grid.Count(), in.nextBlock, in.retired, in.launchStart)
		}
	}
	slots, err := c.prepare(spec, argWords)
	if err != nil {
		return err
	}
	// Recycle any residue from an aborted previous launch.
	for _, u := range c.units {
		u.sizeTables(slots)
	}
	return c.launchLoop(spec.Grid.Count(), 0, 0, c.Cycle)
}

// prepare validates the launch, fills LC and returns the number of
// resident block slots per unit.
func (c *Core[S]) prepare(spec gpu.LaunchSpec, argWords int) (int, error) {
	ch := c.Chip
	k := spec.Kernel
	threads := spec.Group.Count()
	if threads <= 0 {
		return 0, fmt.Errorf("%s: empty thread block", c.name)
	}
	if spec.Grid.Count() <= 0 {
		return 0, fmt.Errorf("%s: empty grid", c.name)
	}
	if len(spec.Args) < argWords {
		return 0, fmt.Errorf("%s: kernel %s reads %d argument words, launch provides %d",
			c.name, k.KernelName(), argWords, len(spec.Args))
	}
	regsPerThread := k.VectorRegsPerThread()
	warps := (threads + ch.WarpWidth - 1) / ch.WarpWidth
	regs := warps * ch.WarpWidth * regsPerThread
	local := k.LocalBytesPerGroup()

	limit := min(ch.MaxGroupsPerUnit, ch.MaxWarpsPerUnit/warps)
	if regs > 0 {
		limit = min(limit, ch.RegsPerUnit/regs)
	}
	if local > 0 {
		limit = min(limit, ch.LocalBytesPerUnit/local)
	}
	if limit <= 0 {
		return 0, fmt.Errorf("%s: kernel %s (%d registers/thread, %d local bytes, %d threads) does not fit on %s",
			c.name, k.KernelName(), regsPerThread, local, threads, ch.Name)
	}
	c.LC = LaunchCtx{
		Args: spec.Args, Grid: spec.Grid, Group: spec.Group,
		Threads: threads, WarpsPerBlock: warps, RegsPerThread: regsPerThread,
		RegsPerBlock: regs, LocalPerBlock: local,
	}
	return limit, nil
}

// launchLoop runs the launch's dispatch/issue/retire loop from the given
// progress point. Its top is the deterministic boundary where checkpoint
// snapshots are captured and where restored launches re-enter, so the
// continuation of a restored run is bit-identical to the original.
func (c *Core[S]) launchLoop(totalBlocks, nextBlock, retired int, launchStart int64) error {
	period := int64(c.Chip.IssuePeriod)

	for retired < totalBlocks {
		if c.Cycle-launchStart > c.watchdog {
			return gpu.ErrWatchdog
		}
		if c.ckptFn != nil && c.Cycle >= c.ckptNext {
			snap := c.capture(&inflightImage{nextBlock: nextBlock, retired: retired, launchStart: launchStart})
			if next := c.ckptFn(snap); next > c.Cycle {
				c.ckptNext = next
			} else {
				c.ckptFn = nil
			}
		}
		c.applyFault()

		// Dispatch pending blocks to free slots.
		for _, u := range c.units {
			for slot := 0; slot < len(u.slots) && nextBlock < totalBlocks; slot++ {
				if !u.slots[slot] {
					c.dispatch(u, slot, nextBlock)
					nextBlock++
				}
			}
		}

		// Issue up to IssueWidth ready warps per unit.
		progress := false
		nextWake := never
		for _, u := range c.units {
			if u.liveWarps == 0 {
				continue
			}
			issued, wake, err := c.issue(u)
			if err != nil {
				return err
			}
			if issued > 0 {
				progress = true
			}
			nextWake = min(nextWake, wake)
			// Retire completed blocks, freeing their slots.
			for slot, blk := range u.blocks {
				if blk != nil && blk.Live == 0 {
					c.retire(u, slot, blk)
					retired++
					progress = true
				}
			}
		}

		if retired >= totalBlocks {
			break
		}
		// Advance time: step by the issue period when making progress,
		// otherwise jump straight to the next scoreboard wake-up.
		switch {
		case progress || nextWake <= c.Cycle:
			c.Cycle += period
		case nextWake < never:
			c.Cycle = nextWake
		default:
			// No warp can ever become ready: all remaining warps wait at
			// a barrier that cannot be satisfied.
			return fmt.Errorf("%s: deadlock at cycle %d (barrier starvation)", c.name, c.Cycle)
		}
	}
	c.Counters.Cycles = c.Cycle
	c.Counters.Launches++
	return nil
}

// dispatch places grid block id into the given unit slot.
func (c *Core[S]) dispatch(u *Unit[S], slot, id int) {
	lc := &c.LC
	gx := max(lc.Grid.X, 1)
	blk := u.takeBlock()
	blk.BlockInfo = BlockInfo{
		ID: id, X: id % gx, Y: id / gx, Slot: slot,
		RegBase: slot * lc.RegsPerBlock, RegCount: lc.RegsPerBlock,
		LocalBase: slot * lc.LocalPerBlock, LocalCount: lc.LocalPerBlock,
		Live: lc.WarpsPerBlock, AllocCycle: c.Cycle,
	}
	ww := c.Chip.WarpWidth
	blk.sizeWarps(lc.WarpsPerBlock)
	for i, w := range blk.Warps {
		base := i * ww
		valid := ^uint64(0) >> (64 - ww)
		if n := lc.Threads - base; n < ww {
			valid = uint64(1)<<n - 1
		}
		w.Blk = blk
		w.Idx = i
		w.PC = 0
		if cap(w.RegReady) >= lc.RegsPerThread {
			w.RegReady = w.RegReady[:lc.RegsPerThread]
			clear(w.RegReady)
		} else {
			w.RegReady = make([]int64, lc.RegsPerThread)
		}
		w.AtBarrier = false
		w.Done = false
		w.WakeAt = 0
		w.ThreadBase = base
		c.isa.InitWarp(u, w, valid)
	}
	u.blocks[slot] = blk
	u.slots[slot] = true
	u.liveWarps += lc.WarpsPerBlock
	if t := c.Tracer; t != nil {
		if blk.RegCount > 0 {
			t.RegAlloc(u.ID, blk.RegBase, blk.RegCount, c.Cycle)
		}
		if blk.LocalCount > 0 {
			t.LocalAlloc(u.ID, blk.LocalBase, blk.LocalCount, c.Cycle)
		}
	}
}

// retire frees a completed block's resources and accounts occupancy.
func (c *Core[S]) retire(u *Unit[S], slot int, blk *Block[S]) {
	dur := float64(c.Cycle - blk.AllocCycle)
	c.Counters.RegOcc.AllocUnitCycles += float64(blk.RegCount) * dur
	c.Counters.LocalOcc.AllocUnitCycles += float64(blk.LocalCount) * dur
	if t := c.Tracer; t != nil {
		if blk.RegCount > 0 {
			t.RegFree(u.ID, blk.RegBase, blk.RegCount, c.Cycle)
		}
		if blk.LocalCount > 0 {
			t.LocalFree(u.ID, blk.LocalBase, blk.LocalCount, c.Cycle)
		}
	}
	u.blocks[slot] = nil
	u.slots[slot] = false
	// A greedy pointer into the retired block is dead weight (every
	// consumer skips done warps); drop it so the recycled warp objects
	// can't be mistaken for the GTO head after reuse.
	if u.greedy != nil && u.greedy.Blk == blk {
		u.greedy = nil
	}
	u.free = append(u.free, blk)
}

// applyFault flips the armed bit once the device cycle reaches its time.
func (c *Core[S]) applyFault() {
	f := c.fault
	if f == nil || c.faultApplied || c.Cycle < f.Cycle {
		return
	}
	c.faultApplied = true
	if f.Unit < 0 || f.Unit >= len(c.units) {
		return
	}
	u := c.units[f.Unit]
	switch f.Structure {
	case gpu.RegisterFile:
		if f.Entry >= 0 && f.Entry < len(u.Regs) {
			u.Regs[f.Entry] ^= f.Mask(32)
		}
	case gpu.LocalMemory:
		if f.Entry >= 0 && f.Entry < len(u.Local) {
			u.Local[f.Entry] ^= byte(f.Mask(8))
		}
	}
}

// issue attempts to issue up to IssueWidth ready warps on one unit. It
// returns the number issued and the earliest wake-up cycle among
// blocked warps (never when none is time-blocked).
func (c *Core[S]) issue(u *Unit[S]) (int, int64, error) {
	issued := 0
	nextWake := never
	order := u.order[:0]
	for _, blk := range u.blocks {
		if blk == nil {
			continue
		}
		for _, w := range blk.Warps {
			if !w.Done {
				order = append(order, w)
			}
		}
	}
	u.order = order
	n := len(order)
	if n == 0 {
		return 0, nextWake, nil
	}
	gto := c.Chip.Scheduler == chips.SchedGTO
	// Greedy-then-oldest: the most recently issued warp gets first claim
	// on the slot; the fallback scan below is oldest-first because the
	// order slice follows block dispatch order.
	if g := u.greedy; gto && g != nil && !g.Done && !g.AtBarrier && g.WakeAt <= c.Cycle {
		ok, wake, err := c.isa.Issue(u, g)
		if err != nil {
			return issued, nextWake, err
		}
		if ok {
			issued++
		} else if wake > c.Cycle {
			g.WakeAt = wake
			nextWake = min(nextWake, wake)
		}
	}
	start := 0
	if c.Chip.Scheduler == chips.SchedRR {
		start = u.rr % n
	}
	for k := 0; k < n && issued < c.Chip.IssueWidth; k++ {
		w := order[(start+k)%n]
		if w.Done || w.AtBarrier || (gto && w == u.greedy) {
			continue
		}
		if w.WakeAt > c.Cycle {
			nextWake = min(nextWake, w.WakeAt)
			continue
		}
		ok, wake, err := c.isa.Issue(u, w)
		if err != nil {
			return issued, nextWake, err
		}
		if ok {
			issued++
			u.rr = (start + k + 1) % n
			u.greedy = w
		} else if wake > c.Cycle {
			w.WakeAt = wake
			nextWake = min(nextWake, wake)
		}
	}
	return issued, nextWake, nil
}

// Barrier parks w at its block's barrier and releases the block once
// every live warp has arrived.
func (c *Core[S]) Barrier(w *Warp[S]) {
	w.AtBarrier = true
	blk := w.Blk
	blk.Arrived++
	if blk.Arrived >= blk.Live {
		blk.release(c.Cycle)
	}
}

// Finish retires w and releases a barrier that was waiting only on
// already-finished warps.
func (c *Core[S]) Finish(u *Unit[S], w *Warp[S]) {
	if w.Done {
		return
	}
	w.Done = true
	blk := w.Blk
	blk.Live--
	u.liveWarps--
	if blk.Live > 0 && blk.Arrived >= blk.Live {
		blk.release(c.Cycle)
	}
}

func (blk *Block[S]) release(cycle int64) {
	blk.Arrived = 0
	for _, w := range blk.Warps {
		if !w.Done && w.AtBarrier {
			w.AtBarrier = false
			w.WakeAt = cycle
		}
	}
}

// FMin is the GPU minimum: the non-NaN operand wins.
func FMin(a, b float32) float32 {
	switch {
	case a != a:
		return b
	case b != b:
		return a
	case a < b:
		return a
	default:
		return b
	}
}

// FMax is the GPU maximum: the non-NaN operand wins.
func FMax(a, b float32) float32 {
	switch {
	case a != a:
		return b
	case b != b:
		return a
	case a > b:
		return a
	default:
		return b
	}
}

// F2I converts float32 to int32 with saturation (deterministic for NaN
// and out-of-range inputs, which fault-corrupted data can produce).
func F2I(f float32) int32 {
	if f != f {
		return 0
	}
	v := math.Trunc(float64(f))
	switch {
	case v > math.MaxInt32:
		return math.MaxInt32
	case v < math.MinInt32:
		return math.MinInt32
	default:
		return int32(v)
	}
}
