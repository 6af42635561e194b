package simt

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/wire"
)

// Checkpointed fast-forward: the golden run captures snapshots of the
// complete device state at scheduling boundaries (the top of the launch
// loop, where an iteration's dispatch/issue/retire work has not yet
// begun), and each injection restores the greatest snapshot below its
// fault cycle instead of re-simulating the fault-free prefix.
//
// Restoring arms resume mode: the host program is replayed from its
// start, device memory suppresses its already-applied allocations and
// uploads (gpu.Memory replay mode), Launch calls for launches the
// snapshot already completed return immediately, and the launch the
// snapshot interrupted re-enters the loop at the captured boundary.
// Because the loop's continuation depends only on the restored state,
// execution from that point is bit-identical to an uninterrupted run.

// snapshot implements gpu.Snapshot: a deep copy of every piece of state
// the launch loop reads or writes.
type snapshot[S any] struct {
	cycle int64
	stats gpu.RunStats
	mem   *gpu.MemImage
	units []unitImage[S]
	// launches is the number of completed Launch calls at capture; a
	// restore skips that many host launches before resuming.
	launches int
	// inflight carries the interrupted launch's loop state; nil when the
	// snapshot was taken between launches.
	inflight *inflightImage
	bytes    int64
}

// Cycle implements gpu.Snapshot.
func (s *snapshot[S]) Cycle() int64 { return s.cycle }

// SizeBytes implements gpu.Snapshot.
func (s *snapshot[S]) SizeBytes() int64 { return s.bytes }

// inflightImage is the interrupted launch's loop-local state.
type inflightImage struct {
	nextBlock   int
	retired     int
	launchStart int64
}

// unitImage is the deep copy of one unit.
type unitImage[S any] struct {
	regs   []uint32
	local  []byte
	slots  []bool
	blocks []*blockImage[S] // indexed by slot; nil = free
	rr     int
	// greedySlot/greedyWarp locate the GTO head warp; -1 when there is
	// none worth re-finding (nil, retired or done — all of which the
	// issue logic treats identically to nil).
	greedySlot, greedyWarp int
}

// blockImage is the deep copy of one resident block; its warps carry a
// nil Blk.
type blockImage[S any] struct {
	BlockInfo
	warps []Warp[S]
}

// resumeState tracks an armed fast-forward: skip counts the completed
// launches the host program will replay, inflight (when non-nil) is the
// loop state of the launch the snapshot interrupted.
type resumeState struct {
	skip     int
	inflight *inflightImage
}

// copyWarp deep-copies src's state into dst (not Blk), reusing dst's
// slice capacity.
func (c *Core[S]) copyWarp(dst, src *Warp[S]) {
	dst.Idx, dst.PC = src.Idx, src.PC
	dst.RegReady = append(dst.RegReady[:0], src.RegReady...)
	dst.AtBarrier, dst.Done = src.AtBarrier, src.Done
	dst.WakeAt, dst.ThreadBase = src.WakeAt, src.ThreadBase
	c.isa.CopyWarp(&dst.Arch, &src.Arch)
}

// Snapshot implements gpu.Device: it captures the state between
// launches (mid-launch snapshots come from the checkpoint hook, which
// supplies the in-flight loop state).
func (c *Core[S]) Snapshot() gpu.Snapshot { return c.capture(nil) }

// SetCheckpointHook implements gpu.Device.
func (c *Core[S]) SetCheckpointHook(next int64, fn func(s gpu.Snapshot) int64) {
	c.ckptFn = fn
	c.ckptNext = next
}

// capture deep-copies the device state.
func (c *Core[S]) capture(inflight *inflightImage) *snapshot[S] {
	snap := &snapshot[S]{
		cycle:    c.Cycle,
		stats:    c.Counters,
		mem:      c.Memory.Image(),
		launches: c.Counters.Launches,
		inflight: inflight,
	}
	snap.bytes = snap.mem.SizeBytes()
	snap.units = make([]unitImage[S], len(c.units))
	for i, u := range c.units {
		img := unitImage[S]{
			regs:       append([]uint32(nil), u.Regs...),
			local:      append([]byte(nil), u.Local...),
			slots:      append([]bool(nil), u.slots...),
			rr:         u.rr,
			greedySlot: -1, greedyWarp: -1,
		}
		img.blocks = make([]*blockImage[S], len(u.blocks))
		for slot, blk := range u.blocks {
			if blk == nil {
				continue
			}
			bi := &blockImage[S]{BlockInfo: blk.BlockInfo, warps: make([]Warp[S], len(blk.Warps))}
			for wi, w := range blk.Warps {
				c.copyWarp(&bi.warps[wi], w)
				if u.greedy == w && !w.Done {
					img.greedySlot, img.greedyWarp = slot, wi
				}
			}
			img.blocks[slot] = bi
		}
		snap.bytes += int64(4*len(img.regs) + len(img.local) + len(img.slots))
		snap.units[i] = img
	}
	return snap
}

// validate rejects a snapshot this device cannot resume from: the unit
// count and every unit's register-file and local-memory sizes must
// match the chip, a unit cannot have more slots than the chip's
// residency limit, and the block table must hold one entry per slot,
// occupied exactly when the slot is.
func (c *Core[S]) validate(snap *snapshot[S]) error {
	if len(snap.units) != len(c.units) {
		return fmt.Errorf("%s: snapshot has %d units, chip %s has %d", c.name, len(snap.units), c.Chip.Name, len(c.units))
	}
	for i, img := range snap.units {
		u := c.units[i]
		if len(img.regs) != len(u.Regs) || len(img.local) != len(u.Local) {
			return fmt.Errorf("%s: snapshot unit %d geometry (%d registers, %d local bytes) does not match chip %s",
				c.name, i, len(img.regs), len(img.local), c.Chip.Name)
		}
		if err := c.checkSlots(i, len(img.slots), len(img.blocks)); err != nil {
			return err
		}
		for slot, bi := range img.blocks {
			if (bi != nil) != img.slots[slot] {
				return fmt.Errorf("%s: snapshot unit %d slot %d: occupancy %v disagrees with its block entry",
					c.name, i, slot, img.slots[slot])
			}
		}
	}
	return nil
}

// checkSlots is the slot-table part of validate, also applied by the
// decoder before it allocates a block table.
func (c *Core[S]) checkSlots(unit, slots, blocks int) error {
	if slots > c.Chip.MaxGroupsPerUnit || blocks != slots {
		return fmt.Errorf("%s: snapshot unit %d has %d block entries for %d slots (chip limit %d)",
			c.name, unit, blocks, slots, c.Chip.MaxGroupsPerUnit)
	}
	return nil
}

// Restore implements gpu.Device. It replaces the execution state with
// the snapshot's and arms fast-forward resume; the armed fault, tracer
// and watchdog are left untouched.
func (c *Core[S]) Restore(s gpu.Snapshot) error {
	snap, ok := s.(*snapshot[S])
	if !ok {
		return fmt.Errorf("%s: cannot restore a %T snapshot", c.name, s)
	}
	if err := c.validate(snap); err != nil {
		return err
	}
	if err := c.Memory.SetImage(snap.mem); err != nil {
		return err
	}
	for i, img := range snap.units {
		u := c.units[i]
		copy(u.Regs, img.regs)
		copy(u.Local, img.local)
		// Recycle the current residents, then rebuild the slot tables
		// from the image reusing retained object and slice capacity:
		// restore runs once per injection, so it must not allocate.
		u.sizeTables(len(img.slots))
		copy(u.slots, img.slots)
		u.rr = img.rr
		u.order = u.order[:0]
		for slot, bi := range img.blocks {
			if bi == nil {
				continue
			}
			blk := u.takeBlock()
			blk.BlockInfo = bi.BlockInfo
			blk.sizeWarps(len(bi.warps))
			for wi, w := range blk.Warps {
				w.Blk = blk
				c.copyWarp(w, &bi.warps[wi])
				if !w.Done {
					u.liveWarps++
				}
				if slot == img.greedySlot && wi == img.greedyWarp {
					u.greedy = w
				}
			}
			u.blocks[slot] = blk
		}
	}
	c.Counters = snap.stats
	c.Cycle = snap.cycle
	c.resume = &resumeState{skip: snap.launches, inflight: snap.inflight}
	return nil
}

// Snapshot codec (gpu.SnapshotCodec): the memory image stays a
// gpu.MemImage; the meta blob encoded here with the wire primitives
// carries everything else — execution statistics, launch progress and
// the per-unit scheduler state, with each warp's record laid out by the
// vendor's EncodeWarp. No snapshot is persisted: the blob is the
// simulator-state fingerprint that each vendor's TestSnapshotMetaPinned
// holds byte for byte across refactors.

// MarshalSnapshot implements gpu.SnapshotCodec.
func (c *Core[S]) MarshalSnapshot(s gpu.Snapshot) (*gpu.MemImage, []byte, error) {
	snap, ok := s.(*snapshot[S])
	if !ok {
		return nil, nil, fmt.Errorf("%s: cannot marshal a %T snapshot", c.name, s)
	}
	var w wire.Writer
	w.I64(snap.cycle)
	w.I64(snap.stats.Cycles)
	w.I64(snap.stats.Instructions)
	w.I64(snap.stats.LaneInstructions)
	w.Int(snap.stats.Launches)
	w.F64(snap.stats.RegOcc.AllocUnitCycles)
	w.F64(snap.stats.LocalOcc.AllocUnitCycles)
	w.Int(snap.launches)
	w.Bool(snap.inflight != nil)
	if in := snap.inflight; in != nil {
		w.Int(in.nextBlock)
		w.Int(in.retired)
		w.I64(in.launchStart)
	}
	w.I64(snap.bytes)
	w.U32(uint32(len(snap.units)))
	for _, u := range snap.units {
		w.U32s(u.regs)
		w.Blob(u.local)
		w.Bools(u.slots)
		w.Int(u.rr)
		w.Int(u.greedySlot)
		w.Int(u.greedyWarp)
		w.U32(uint32(len(u.blocks)))
		for _, blk := range u.blocks {
			w.Bool(blk != nil)
			if blk == nil {
				continue
			}
			w.Int(blk.ID)
			w.Int(blk.X)
			w.Int(blk.Y)
			w.Int(blk.Slot)
			w.Int(blk.RegBase)
			w.Int(blk.RegCount)
			w.Int(blk.LocalBase)
			w.Int(blk.LocalCount)
			w.Int(blk.Live)
			w.Int(blk.Arrived)
			w.I64(blk.AllocCycle)
			w.U32(uint32(len(blk.warps)))
			for i := range blk.warps {
				c.isa.EncodeWarp(&w, &blk.warps[i])
			}
		}
	}
	return snap.mem, w.Bytes(), nil
}

// UnmarshalSnapshot implements gpu.SnapshotCodec. The returned snapshot
// references mem directly (the restore path only copies out of images,
// never into them). A meta that decodes but fails Restore's validation
// is rejected here too, so every accepted snapshot restores.
func (c *Core[S]) UnmarshalSnapshot(mem *gpu.MemImage, meta []byte) (gpu.Snapshot, error) {
	snap, err := c.decode(mem, meta)
	if err == nil {
		if verr := c.validate(snap); verr != nil {
			err = fmt.Errorf("%w: %v", wire.ErrCorrupt, verr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: snapshot meta: %w", c.name, err)
	}
	return snap, nil
}

// decode parses a meta blob. Every allocation is bounded by the chip
// geometry or by the bytes left to decode.
func (c *Core[S]) decode(mem *gpu.MemImage, meta []byte) (*snapshot[S], error) {
	// The smallest warp record (all slices empty) bounds how many warps
	// the remaining bytes can hold.
	var minWarp wire.Writer
	c.isa.EncodeWarp(&minWarp, &Warp[S]{})
	warpWireMin := len(minWarp.Bytes())

	r := wire.NewReader(meta)
	snap := &snapshot[S]{mem: mem}
	snap.cycle = r.I64()
	snap.stats.Cycles = r.I64()
	snap.stats.Instructions = r.I64()
	snap.stats.LaneInstructions = r.I64()
	snap.stats.Launches = r.Int()
	snap.stats.RegOcc.AllocUnitCycles = r.F64()
	snap.stats.LocalOcc.AllocUnitCycles = r.F64()
	snap.launches = r.Int()
	if r.Bool() {
		snap.inflight = &inflightImage{
			nextBlock:   r.Int(),
			retired:     r.Int(),
			launchStart: r.I64(),
		}
	}
	snap.bytes = r.I64()
	nu := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nu != len(c.units) {
		return nil, fmt.Errorf("%w: %d units, chip %s has %d", wire.ErrCorrupt, nu, c.Chip.Name, len(c.units))
	}
	snap.units = make([]unitImage[S], nu)
	for i := range snap.units {
		u := &snap.units[i]
		u.regs = r.U32s()
		u.local = r.Blob()
		u.slots = r.Bools()
		u.rr = r.Int()
		u.greedySlot = r.Int()
		u.greedyWarp = r.Int()
		nblk := int(r.U32())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if err := c.checkSlots(i, len(u.slots), nblk); err != nil {
			return nil, fmt.Errorf("%w: %v", wire.ErrCorrupt, err)
		}
		u.blocks = make([]*blockImage[S], nblk)
		for slot := range u.blocks {
			if !r.Bool() {
				continue
			}
			blk := &blockImage[S]{BlockInfo: BlockInfo{
				ID: r.Int(), X: r.Int(), Y: r.Int(), Slot: r.Int(),
				RegBase: r.Int(), RegCount: r.Int(),
				LocalBase: r.Int(), LocalCount: r.Int(),
				Live: r.Int(), Arrived: r.Int(), AllocCycle: r.I64(),
			}}
			nw := int(r.U32())
			if r.Err() != nil {
				return nil, r.Err()
			}
			if nw > r.Remaining()/warpWireMin {
				return nil, fmt.Errorf("%w: implausible warp count %d", wire.ErrCorrupt, nw)
			}
			blk.warps = make([]Warp[S], nw)
			for wi := range blk.warps {
				if err := c.isa.DecodeWarp(r, &blk.warps[wi]); err != nil {
					return nil, err
				}
			}
			u.blocks[slot] = blk
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return snap, nil
}
