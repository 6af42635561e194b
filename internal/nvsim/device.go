// Package nvsim is a cycle-level simulator of NVIDIA-style SIMT GPUs
// (G80, GT200, Fermi) executing the SASS-like ISA of internal/sass. It is
// the reproduction's stand-in for GPGPU-Sim 3.2.2, the substrate of the
// paper's GUFI tool.
//
// The model: a chip is a set of streaming multiprocessors (SMs). Thread
// blocks are dispatched to SMs subject to the chip's residency limits
// (resident blocks, resident warps, register file, shared memory). Each
// warp of 32 threads executes in lockstep with a SIMT reconvergence stack
// (SSY/SYNC), per-warp register scoreboarding with per-class latencies,
// and round-robin issue of up to IssueWidth warp instructions per SM per
// IssuePeriod cycles. Values are written architecturally at issue and
// become visible to dependents after the instruction latency, which is
// the standard trade-off for fault-injection simulators: the physical
// register file always holds the architectural values that a bit flip
// would corrupt on real hardware.
//
// Residency, dispatch, the issue scan, fault application, the watchdog
// and checkpointing are internal/simt's, shared with amdsim; this
// package supplies the SASS half: the per-warp SIMT stack and
// predicates, instruction execution, and the warp's snapshot record.
//
// Reliability hooks: InjectFault arms a single-bit flip on a physical
// register-file entry or shared-memory byte at an absolute device cycle;
// SetTracer streams every register/shared-memory access and every
// allocation interval to the ACE analysis.
package nvsim

import (
	"fmt"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/simt"
	"repro/internal/wire"
)

// Device is one simulated NVIDIA GPU: the shared SIMT core running the
// SASS ISA. Its exported hook methods (Bind … DecodeWarp) implement
// simt.ISA and are called by the core only.
type Device struct {
	simt.Core[warpState]
	prog *sass.Program // kernel of the launch in flight
}

type (
	warp = simt.Warp[warpState]
	sm   = simt.Unit[warpState]
)

type stackKind uint8

const (
	stackSSY stackKind = iota
	stackDIV
)

type stackEntry struct {
	kind stackKind
	pc   int
	mask uint32
}

// warpState is the SASS architectural state of one warp.
type warpState struct {
	valid     uint32 // lanes that carry real threads
	active    uint32 // current SIMT active mask
	exited    uint32 // lanes that executed EXIT
	stack     []stackEntry
	preds     [sass.NumPreds]uint32 // per-lane predicate bits
	predReady [sass.NumPreds]int64
}

// New creates a device for an NVIDIA chip configuration.
func New(chip *chips.Chip) (*Device, error) {
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	if chip.Vendor != gpu.NVIDIA {
		return nil, fmt.Errorf("nvsim: chip %s is not an NVIDIA configuration", chip.Name)
	}
	d := &Device{}
	d.Core = simt.MakeCore[warpState](chip, "nvsim", d)
	return d, nil
}

// Bind implements simt.ISA.
func (d *Device) Bind(k gpu.Kernel) (int, error) {
	prog, ok := k.(*sass.Program)
	if !ok {
		return 0, fmt.Errorf("nvsim: kernel %T is not a *sass.Program", k)
	}
	d.prog = prog
	return prog.NumParams, nil
}

// InitWarp implements simt.ISA.
func (d *Device) InitWarp(_ *sm, w *warp, valid uint64) {
	stack := w.Arch.stack[:0]
	w.Arch = warpState{valid: uint32(valid), active: uint32(valid), stack: stack}
}

// CopyWarp implements simt.ISA.
func (d *Device) CopyWarp(dst, src *warpState) {
	stack := append(dst.stack[:0], src.stack...)
	*dst = *src
	dst.stack = stack
}

// EncodeWarp implements simt.ISA.
func (d *Device) EncodeWarp(w *wire.Writer, wp *warp) {
	s := &wp.Arch
	w.Int(wp.Idx)
	w.Int(wp.PC)
	w.U32(s.valid)
	w.U32(s.active)
	w.U32(s.exited)
	w.U32(uint32(len(s.stack)))
	for _, e := range s.stack {
		w.U8(uint8(e.kind))
		w.Int(e.pc)
		w.U32(e.mask)
	}
	for _, p := range s.preds {
		w.U32(p)
	}
	w.I64s(wp.RegReady)
	for _, rdy := range s.predReady {
		w.I64(rdy)
	}
	w.Bool(wp.AtBarrier)
	w.Bool(wp.Done)
	w.I64(wp.WakeAt)
	w.Int(wp.ThreadBase)
}

// stackEntryWireSize is the encoded size of one reconvergence stack
// entry, used to bound decode-time allocation by the input size.
const stackEntryWireSize = 1 + 8 + 4

// DecodeWarp implements simt.ISA.
func (d *Device) DecodeWarp(r *wire.Reader, wp *warp) error {
	s := &wp.Arch
	wp.Idx = r.Int()
	wp.PC = r.Int()
	s.valid = r.U32()
	s.active = r.U32()
	s.exited = r.U32()
	if ns := int(r.U32()); ns > 0 {
		if ns > r.Remaining()/stackEntryWireSize {
			return fmt.Errorf("%w: implausible stack depth %d", wire.ErrCorrupt, ns)
		}
		s.stack = make([]stackEntry, ns)
		for i := range s.stack {
			s.stack[i] = stackEntry{kind: stackKind(r.U8()), pc: r.Int(), mask: r.U32()}
		}
	}
	for i := range s.preds {
		s.preds[i] = r.U32()
	}
	wp.RegReady = r.I64s()
	for i := range s.predReady {
		s.predReady[i] = r.I64()
	}
	wp.AtBarrier = r.Bool()
	wp.Done = r.Bool()
	wp.WakeAt = r.I64()
	wp.ThreadBase = r.Int()
	return nil
}

var (
	_ gpu.Device        = (*Device)(nil)
	_ gpu.SnapshotCodec = (*Device)(nil)
	_ gpu.RestoreCoster = (*Device)(nil)
)
