// Package amdsim is a cycle-level simulator of AMD Southern Islands
// compute units executing the SI-like ISA of internal/siasm. It is the
// reproduction's stand-in for Multi2Sim 4.2, the substrate of the paper's
// SIFI tool.
//
// The model: a chip is a set of compute units (CUs). Workgroups are
// dispatched to CUs subject to residency limits (workgroups, wavefronts,
// VGPR file, LDS). Each wavefront of 64 work-items executes scalar
// instructions once and vector instructions per active lane under the
// program-managed EXEC mask, with per-wavefront scoreboarding and
// round-robin issue of up to IssueWidth wavefront instructions per CU per
// IssuePeriod cycles (a Tahiti CU feeds 4 SIMD units, one wavefront slot
// each per 4-cycle cadence).
//
// Residency, dispatch, the issue scan, fault application, the watchdog
// and checkpointing are internal/simt's, shared with nvsim (in simt's
// terms a CU is a unit, a workgroup a block, a wavefront a warp); this
// package supplies the SI half: EXEC/VCC/SCC and the SGPRs of each
// wavefront, instruction execution, and the wavefront's snapshot record.
//
// Fault-injection targets the physical VGPR file (the paper's "vector
// register file") and the LDS ("local memory"); the tracer streams the
// same accesses to the ACE analysis.
package amdsim

import (
	"fmt"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/siasm"
	"repro/internal/simt"
	"repro/internal/wire"
)

// Device is one simulated AMD GPU: the shared SIMT core running the SI
// ISA. Its exported hook methods (Bind … DecodeWarp) implement simt.ISA
// and are called by the core only.
type Device struct {
	simt.Core[waveState]
	prog *siasm.Program // kernel of the launch in flight
}

type (
	wavefront = simt.Warp[waveState]
	cu        = simt.Unit[waveState]
)

// waveState is the SI architectural state of one wavefront.
type waveState struct {
	valid uint64
	exec  uint64
	vcc   uint64
	scc   bool
	sgprs [siasm.MaxSGPRs]uint32

	sgprReady [siasm.MaxSGPRs]int64
	vccReady  int64
	execReady int64
	sccReady  int64

	vgprWBase int // physical VGPR base of this wavefront
}

// New creates a device for an AMD chip configuration.
func New(chip *chips.Chip) (*Device, error) {
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	if chip.Vendor != gpu.AMD {
		return nil, fmt.Errorf("amdsim: chip %s is not an AMD configuration", chip.Name)
	}
	d := &Device{}
	d.Core = simt.MakeCore[waveState](chip, "amdsim", d)
	return d, nil
}

// Bind implements simt.ISA.
func (d *Device) Bind(k gpu.Kernel) (int, error) {
	prog, ok := k.(*siasm.Program)
	if !ok {
		return 0, fmt.Errorf("amdsim: kernel %T is not a *siasm.Program", k)
	}
	d.prog = prog
	return prog.NumKArgs, nil
}

// InitWarp implements simt.ISA. Besides resetting the wavefront it
// performs the hardware's work-item id preload into v0 (and v1 for 2-D
// groups); these are genuine, traced VGPR writes.
func (d *Device) InitWarp(c *cu, w *wavefront, valid uint64) {
	ww := d.Chip.WarpWidth
	nv := d.prog.NumVGPRs
	g := w.Blk
	w.Arch = waveState{valid: valid, exec: valid, vgprWBase: g.RegBase + w.Idx*ww*nv}
	w.Arch.sgprs[siasm.SRegWGIDX] = uint32(g.X)
	w.Arch.sgprs[siasm.SRegWGIDY] = uint32(g.Y)
	lsx := max(d.LC.Group.X, 1)
	lsy := max(d.LC.Group.Y, 1)
	for lane := 0; lane < ww; lane++ {
		if valid&(1<<lane) == 0 {
			continue
		}
		t := w.ThreadBase + lane
		d.writeVGPR(c, w, lane, 0, uint32(t%lsx))
		if nv > 1 {
			d.writeVGPR(c, w, lane, 1, uint32((t/lsx)%lsy))
		}
	}
}

// CopyWarp implements simt.ISA.
func (d *Device) CopyWarp(dst, src *waveState) { *dst = *src }

// EncodeWarp implements simt.ISA.
func (d *Device) EncodeWarp(w *wire.Writer, wv *wavefront) {
	s := &wv.Arch
	w.Int(wv.Idx)
	w.Int(wv.PC)
	w.U64(s.valid)
	w.U64(s.exec)
	w.U64(s.vcc)
	w.Bool(s.scc)
	for _, v := range s.sgprs {
		w.U32(v)
	}
	w.I64s(wv.RegReady)
	for _, rdy := range s.sgprReady {
		w.I64(rdy)
	}
	w.I64(s.vccReady)
	w.I64(s.execReady)
	w.I64(s.sccReady)
	w.Bool(wv.AtBarrier)
	w.Bool(wv.Done)
	w.I64(wv.WakeAt)
	w.Int(wv.ThreadBase)
	w.Int(s.vgprWBase)
}

// DecodeWarp implements simt.ISA.
func (d *Device) DecodeWarp(r *wire.Reader, wv *wavefront) error {
	s := &wv.Arch
	wv.Idx = r.Int()
	wv.PC = r.Int()
	s.valid = r.U64()
	s.exec = r.U64()
	s.vcc = r.U64()
	s.scc = r.Bool()
	for i := range s.sgprs {
		s.sgprs[i] = r.U32()
	}
	wv.RegReady = r.I64s()
	for i := range s.sgprReady {
		s.sgprReady[i] = r.I64()
	}
	s.vccReady = r.I64()
	s.execReady = r.I64()
	s.sccReady = r.I64()
	wv.AtBarrier = r.Bool()
	wv.Done = r.Bool()
	wv.WakeAt = r.I64()
	wv.ThreadBase = r.Int()
	s.vgprWBase = r.Int()
	return nil
}

var (
	_ gpu.Device        = (*Device)(nil)
	_ gpu.SnapshotCodec = (*Device)(nil)
	_ gpu.RestoreCoster = (*Device)(nil)
)
