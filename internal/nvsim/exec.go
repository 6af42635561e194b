package nvsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sass"
	"repro/internal/simt"
)

// latency returns the completion latency for an opcode class.
func (d *Device) latency(cl sass.Class) int64 {
	switch cl {
	case sass.ClassSFU:
		return int64(d.Chip.SFULat)
	case sass.ClassLocalMem:
		return int64(d.Chip.LocalLat)
	case sass.ClassGlobalMem:
		return int64(d.Chip.GlobalLat)
	default:
		return int64(d.Chip.ALULat)
	}
}

// depReady returns the cycle at which every register/predicate dependency
// of the instruction is available.
func depReady(w *warp, in *sass.Instr) int64 {
	var t int64
	reg := func(r uint8) {
		if r != sass.RZ && int(r) < len(w.RegReady) && w.RegReady[r] > t {
			t = w.RegReady[r]
		}
	}
	pred := func(p uint8) {
		if p != sass.PT && w.Arch.predReady[p] > t {
			t = w.Arch.predReady[p]
		}
	}
	pred(in.Guard.Pred)
	for _, o := range in.Src {
		if o.Kind == sass.OperandReg {
			reg(o.Reg)
		}
	}
	switch in.Op {
	case sass.OpLDG, sass.OpSTG, sass.OpLDS, sass.OpSTS:
		reg(in.MemBase)
	}
	reg(in.Dst) // WAW
	if in.Op == sass.OpISETP || in.Op == sass.OpFSETP {
		pred(in.PDst)
	}
	if in.Op == sass.OpSEL {
		pred(in.PSrc)
	}
	return t
}

// regIndex maps (warp, lane, architectural register) to the physical
// register-file entry within the SM.
func (d *Device) regIndex(w *warp, lane int, r uint8) int {
	return w.Blk.RegBase + (w.ThreadBase+lane)*d.prog.NumRegs + int(r)
}

// readReg reads an architectural register for one lane.
func (d *Device) readReg(s *sm, w *warp, lane int, r uint8) uint32 {
	if r == sass.RZ {
		return 0
	}
	idx := d.regIndex(w, lane, r)
	if t := d.Tracer; t != nil {
		t.RegAccess(s.ID, idx, d.Cycle, false)
	}
	return s.Regs[idx]
}

// writeReg writes an architectural register for one lane.
func (d *Device) writeReg(s *sm, w *warp, lane int, r uint8, v uint32) {
	if r == sass.RZ {
		return
	}
	idx := d.regIndex(w, lane, r)
	if t := d.Tracer; t != nil {
		t.RegAccess(s.ID, idx, d.Cycle, true)
	}
	s.Regs[idx] = v
}

// readOperand evaluates a source operand for one lane.
func (d *Device) readOperand(s *sm, w *warp, lane int, o sass.Operand) uint32 {
	switch o.Kind {
	case sass.OperandReg:
		return d.readReg(s, w, lane, o.Reg)
	case sass.OperandImm:
		return o.Imm
	case sass.OperandConst:
		return d.LC.Args[o.CIdx]
	default:
		return 0
	}
}

// guardMask returns the lanes whose guard predicate holds.
func (w *warpState) guardMask(g sass.Guard) uint32 {
	if g.Pred == sass.PT {
		if g.Neg {
			return 0
		}
		return ^uint32(0)
	}
	m := w.preds[g.Pred]
	if g.Neg {
		m = ^m
	}
	return m
}

// unwind pops the SIMT stack while the active mask is empty; it marks the
// warp done when the stack is exhausted.
func (d *Device) unwind(s *sm, w *warp) {
	st := &w.Arch
	for st.active == 0 {
		if len(st.stack) == 0 {
			d.Finish(s, w)
			return
		}
		e := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		w.PC = e.pc
		st.active = e.mask &^ st.exited
	}
}

// Issue implements simt.ISA: it attempts to issue the warp's next
// instruction at the current cycle. It returns (issued, wakeCycle,
// error); wakeCycle is meaningful when issued is false and indicates
// when the blocking dependency clears.
func (d *Device) Issue(s *sm, w *warp) (bool, int64, error) {
	prog := d.prog
	if w.PC < 0 || w.PC >= len(prog.Instrs) {
		return false, 0, fmt.Errorf("nvsim: kernel %s: invalid PC %d (warp %d of block %d)",
			prog.Name, w.PC, w.Idx, w.Blk.ID)
	}
	in := &prog.Instrs[w.PC]
	if ready := depReady(w, in); ready > d.Cycle {
		return false, ready, nil
	}
	st := &w.Arch
	exec := st.active & st.guardMask(in.Guard)

	d.Counters.Instructions++
	d.Counters.LaneInstructions += int64(bits.OnesCount32(exec))
	lat := d.latency(sass.OpClass(in.Op))

	switch in.Op {
	case sass.OpNOP:
		w.PC++

	case sass.OpEXIT:
		st.exited |= exec
		st.active &^= exec
		if exec == 0 {
			w.PC++
		} else if st.active == 0 {
			d.unwind(s, w)
		} else {
			w.PC++
		}

	case sass.OpBRA:
		taken := exec
		notTaken := st.active &^ taken
		switch {
		case taken == 0:
			w.PC++
		case notTaken == 0:
			w.PC = in.Target
		default:
			st.stack = append(st.stack, stackEntry{kind: stackDIV, pc: in.Target, mask: taken})
			st.active = notTaken
			w.PC++
		}

	case sass.OpSSY:
		st.stack = append(st.stack, stackEntry{kind: stackSSY, pc: in.Target, mask: st.active})
		w.PC++

	case sass.OpSYNC:
		if len(st.stack) == 0 {
			return false, 0, fmt.Errorf("nvsim: kernel %s: SYNC with empty SIMT stack at PC %d",
				prog.Name, w.PC)
		}
		e := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		w.PC = e.pc
		st.active = e.mask &^ st.exited
		if st.active == 0 {
			d.unwind(s, w)
		}

	case sass.OpBAR:
		w.PC++
		d.Barrier(w)

	case sass.OpS2R:
		for lane := 0; lane < 32; lane++ {
			if exec&(1<<lane) == 0 {
				continue
			}
			d.writeReg(s, w, lane, in.Dst, d.specialReg(w, lane, in.SR))
		}
		w.RegReady[in.Dst] = d.Cycle + lat
		w.PC++

	case sass.OpISETP, sass.OpFSETP:
		var setMask uint32
		for lane := 0; lane < 32; lane++ {
			if exec&(1<<lane) == 0 {
				continue
			}
			a := d.readOperand(s, w, lane, in.Src[0])
			b := d.readOperand(s, w, lane, in.Src[1])
			var res bool
			if in.Op == sass.OpISETP {
				res = in.Cmp.EvalI(int32(a), int32(b))
			} else {
				res = in.Cmp.EvalF(math.Float32frombits(a), math.Float32frombits(b))
			}
			if res {
				setMask |= 1 << lane
			}
		}
		st.preds[in.PDst] = (st.preds[in.PDst] &^ exec) | setMask
		st.predReady[in.PDst] = d.Cycle + lat
		w.PC++

	case sass.OpLDG, sass.OpSTG:
		if err := d.execGlobal(s, w, in, exec); err != nil {
			return false, 0, err
		}
		if in.Op == sass.OpLDG && in.Dst != sass.RZ {
			w.RegReady[in.Dst] = d.Cycle + lat
		}
		w.PC++

	case sass.OpLDS, sass.OpSTS:
		if err := d.execShared(s, w, in, exec); err != nil {
			return false, 0, err
		}
		if in.Op == sass.OpLDS && in.Dst != sass.RZ {
			w.RegReady[in.Dst] = d.Cycle + lat
		}
		w.PC++

	default: // register-to-register ALU/SFU ops
		for lane := 0; lane < 32; lane++ {
			if exec&(1<<lane) == 0 {
				continue
			}
			v := d.execALU(s, w, lane, in)
			d.writeReg(s, w, lane, in.Dst, v)
		}
		if in.Dst != sass.RZ {
			w.RegReady[in.Dst] = d.Cycle + lat
		}
		w.PC++
	}

	if w.PC >= len(prog.Instrs) && !w.Done && in.Op != sass.OpEXIT {
		// Fell off the end of the instruction stream: invalid control
		// flow (can be reached through fault-corrupted indices only via
		// EXIT-less paths, which the assembler rejects; keep it fatal).
		return false, 0, fmt.Errorf("nvsim: kernel %s: control flow fell off program end", prog.Name)
	}
	return true, 0, nil
}

// specialReg evaluates S2R for one lane.
func (d *Device) specialReg(w *warp, lane int, sr sass.SpecialReg) uint32 {
	t := w.ThreadBase + lane
	ntx, nty := d.LC.Group.X, d.LC.Group.Y
	if ntx <= 0 {
		ntx = 1
	}
	if nty <= 0 {
		nty = 1
	}
	switch sr {
	case sass.SRTidX:
		return uint32(t % ntx)
	case sass.SRTidY:
		return uint32((t / ntx) % nty)
	case sass.SRCtaidX:
		return uint32(w.Blk.X)
	case sass.SRCtaidY:
		return uint32(w.Blk.Y)
	case sass.SRNTidX:
		return uint32(ntx)
	case sass.SRNTidY:
		return uint32(nty)
	case sass.SRNCtaidX:
		x := d.LC.Grid.X
		if x <= 0 {
			x = 1
		}
		return uint32(x)
	case sass.SRNCtaidY:
		y := d.LC.Grid.Y
		if y <= 0 {
			y = 1
		}
		return uint32(y)
	case sass.SRLaneID:
		return uint32(lane)
	case sass.SRWarpID:
		return uint32(w.Idx)
	default:
		return 0
	}
}

// execALU computes one ALU/SFU result for one lane.
func (d *Device) execALU(s *sm, w *warp, lane int, in *sass.Instr) uint32 {
	a := d.readOperand(s, w, lane, in.Src[0])
	var b, c uint32
	if in.Src[1].Kind != sass.OperandNone {
		b = d.readOperand(s, w, lane, in.Src[1])
	}
	if in.Src[2].Kind != sass.OperandNone {
		c = d.readOperand(s, w, lane, in.Src[2])
	}
	fa := math.Float32frombits(a)
	fb := math.Float32frombits(b)
	fc := math.Float32frombits(c)

	switch in.Op {
	case sass.OpMOV:
		return a
	case sass.OpIADD:
		return a + b
	case sass.OpISUB:
		return a - b
	case sass.OpIMUL:
		return uint32(int32(a) * int32(b))
	case sass.OpIMIN:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case sass.OpIMAX:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case sass.OpAND:
		return a & b
	case sass.OpOR:
		return a | b
	case sass.OpXOR:
		return a ^ b
	case sass.OpSHL:
		return a << (b & 31)
	case sass.OpSHR:
		return a >> (b & 31)
	case sass.OpIMAD:
		return uint32(int32(a)*int32(b) + int32(c))
	case sass.OpFADD:
		return math.Float32bits(fa + fb)
	case sass.OpFSUB:
		return math.Float32bits(fa - fb)
	case sass.OpFMUL:
		return math.Float32bits(fa * fb)
	case sass.OpFMIN:
		return math.Float32bits(simt.FMin(fa, fb))
	case sass.OpFMAX:
		return math.Float32bits(simt.FMax(fa, fb))
	case sass.OpFFMA:
		return math.Float32bits(float32(math.FMA(float64(fa), float64(fb), float64(fc))))
	case sass.OpRCP:
		return math.Float32bits(1 / fa)
	case sass.OpEX2:
		return math.Float32bits(float32(math.Exp2(float64(fa))))
	case sass.OpLG2:
		return math.Float32bits(float32(math.Log2(float64(fa))))
	case sass.OpSQRT:
		return math.Float32bits(float32(math.Sqrt(float64(fa))))
	case sass.OpI2F:
		return math.Float32bits(float32(int32(a)))
	case sass.OpF2I:
		return uint32(simt.F2I(fa))
	case sass.OpSEL:
		if w.Arch.preds[in.PSrc]&(1<<lane) != 0 || in.PSrc == sass.PT {
			return a
		}
		return b
	default:
		return 0
	}
}

// execGlobal performs LDG/STG for all active lanes.
func (d *Device) execGlobal(s *sm, w *warp, in *sass.Instr, exec uint32) error {
	for lane := 0; lane < 32; lane++ {
		if exec&(1<<lane) == 0 {
			continue
		}
		base := d.readReg(s, w, lane, in.MemBase)
		addr := base + uint32(in.MemOff)
		if addr%4 != 0 {
			return fmt.Errorf("nvsim: kernel %s: misaligned global access %#x (PC %d)", d.prog.Name, addr, w.PC)
		}
		if in.Op == sass.OpLDG {
			v, err := d.Memory.Load32(addr)
			if err != nil {
				return fmt.Errorf("nvsim: kernel %s PC %d: %w", d.prog.Name, w.PC, err)
			}
			d.writeReg(s, w, lane, in.Dst, v)
		} else {
			v := d.readOperand(s, w, lane, in.Src[0])
			if err := d.Memory.Store32(addr, v); err != nil {
				return fmt.Errorf("nvsim: kernel %s PC %d: %w", d.prog.Name, w.PC, err)
			}
		}
	}
	return nil
}

// execShared performs LDS/STS for all active lanes against the block's
// shared-memory window.
func (d *Device) execShared(s *sm, w *warp, in *sass.Instr, exec uint32) error {
	blk := w.Blk
	for lane := 0; lane < 32; lane++ {
		if exec&(1<<lane) == 0 {
			continue
		}
		base := d.readReg(s, w, lane, in.MemBase)
		addr := base + uint32(in.MemOff)
		if addr%4 != 0 {
			return fmt.Errorf("nvsim: kernel %s: misaligned shared access %#x (PC %d)", d.prog.Name, addr, w.PC)
		}
		if int(addr)+4 > blk.LocalCount {
			return fmt.Errorf("nvsim: kernel %s: shared access %#x beyond block allocation %d (PC %d)",
				d.prog.Name, addr, blk.LocalCount, w.PC)
		}
		phys := blk.LocalBase + int(addr)
		if in.Op == sass.OpLDS {
			if t := d.Tracer; t != nil {
				t.LocalAccess(s.ID, phys, 4, d.Cycle, false)
			}
			v := binary.LittleEndian.Uint32(s.Local[phys:])
			d.writeReg(s, w, lane, in.Dst, v)
		} else {
			v := d.readOperand(s, w, lane, in.Src[0])
			if t := d.Tracer; t != nil {
				t.LocalAccess(s.ID, phys, 4, d.Cycle, true)
			}
			binary.LittleEndian.PutUint32(s.Local[phys:], v)
		}
	}
	return nil
}
