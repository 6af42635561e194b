package amdsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/siasm"
	"repro/internal/simt"
)

func (d *Device) latency(cl siasm.Class) int64 {
	switch cl {
	case siasm.ClassSFU:
		return int64(d.Chip.SFULat)
	case siasm.ClassLDS:
		return int64(d.Chip.LocalLat)
	case siasm.ClassGlobal:
		return int64(d.Chip.GlobalLat)
	default:
		return int64(d.Chip.ALULat)
	}
}

// opReady returns the scoreboard time of one operand.
func opReady(w *wavefront, o siasm.Operand) int64 {
	switch o.Kind {
	case siasm.OperandVReg:
		if int(o.Reg) < len(w.RegReady) {
			return w.RegReady[o.Reg]
		}
	case siasm.OperandSReg:
		return w.Arch.sgprReady[o.Reg]
	case siasm.OperandSReg64:
		a := w.Arch.sgprReady[o.Reg]
		if int(o.Reg)+1 < len(w.Arch.sgprReady) && w.Arch.sgprReady[o.Reg+1] > a {
			a = w.Arch.sgprReady[o.Reg+1]
		}
		return a
	case siasm.OperandVCC:
		return w.Arch.vccReady
	case siasm.OperandEXEC:
		return w.Arch.execReady
	}
	return 0
}

// depReady returns the cycle at which all dependencies are available.
func depReady(w *wavefront, in *siasm.Instr) int64 {
	t := opReady(w, in.Dst)
	for _, o := range in.Src {
		if r := opReady(w, o); r > t {
			t = r
		}
	}
	switch siasm.OpClass(in.Op) {
	case siasm.ClassVector, siasm.ClassSFU, siasm.ClassLDS, siasm.ClassGlobal:
		if in.Op != siasm.OpSLoadDW && w.Arch.execReady > t {
			t = w.Arch.execReady
		}
	}
	switch in.Op {
	case siasm.OpVCndmask:
		if w.Arch.vccReady > t {
			t = w.Arch.vccReady
		}
	case siasm.OpSCBranch:
		switch in.BrCond {
		case siasm.BrSCC0, siasm.BrSCC1:
			if w.Arch.sccReady > t {
				t = w.Arch.sccReady
			}
		case siasm.BrVCCZ, siasm.BrVCCNZ:
			if w.Arch.vccReady > t {
				t = w.Arch.vccReady
			}
		default:
			if w.Arch.execReady > t {
				t = w.Arch.execReady
			}
		}
	case siasm.OpSAndSaveexec, siasm.OpSOrSaveexec:
		if w.Arch.execReady > t {
			t = w.Arch.execReady
		}
	}
	return t
}

// vgprIndex maps (wavefront, lane, architectural VGPR) to the physical
// entry within the CU's VGPR file (register-major layout).
func (d *Device) vgprIndex(w *wavefront, lane int, r uint8) int {
	return w.Arch.vgprWBase + int(r)*d.Chip.WarpWidth + lane
}

func (d *Device) readVGPR(c *cu, w *wavefront, lane int, r uint8) uint32 {
	idx := d.vgprIndex(w, lane, r)
	if t := d.Tracer; t != nil {
		t.RegAccess(c.ID, idx, d.Cycle, false)
	}
	return c.Regs[idx]
}

func (d *Device) writeVGPR(c *cu, w *wavefront, lane int, r uint8, v uint32) {
	idx := d.vgprIndex(w, lane, r)
	if t := d.Tracer; t != nil {
		t.RegAccess(c.ID, idx, d.Cycle, true)
	}
	c.Regs[idx] = v
}

// readOp32 evaluates a 32-bit source for one lane.
func (d *Device) readOp32(c *cu, w *wavefront, lane int, o siasm.Operand) (uint32, error) {
	switch o.Kind {
	case siasm.OperandVReg:
		return d.readVGPR(c, w, lane, o.Reg), nil
	case siasm.OperandSReg:
		return w.Arch.sgprs[o.Reg], nil
	case siasm.OperandImm:
		return o.Imm, nil
	default:
		return 0, fmt.Errorf("amdsim: operand %s is not a 32-bit source", o)
	}
}

// read64 evaluates a 64-bit scalar source.
func (w *waveState) read64(o siasm.Operand) (uint64, error) {
	switch o.Kind {
	case siasm.OperandSReg64:
		return uint64(w.sgprs[o.Reg]) | uint64(w.sgprs[o.Reg+1])<<32, nil
	case siasm.OperandVCC:
		return w.vcc, nil
	case siasm.OperandEXEC:
		return w.exec, nil
	case siasm.OperandImm:
		return uint64(int64(int32(o.Imm))), nil
	default:
		return 0, fmt.Errorf("amdsim: operand %s is not a 64-bit scalar", o)
	}
}

// write64 stores to a 64-bit scalar destination; EXEC writes are masked
// to existing lanes.
func (w *waveState) write64(o siasm.Operand, v uint64, ready int64) error {
	switch o.Kind {
	case siasm.OperandSReg64:
		w.sgprs[o.Reg] = uint32(v)
		w.sgprs[o.Reg+1] = uint32(v >> 32)
		w.sgprReady[o.Reg] = ready
		w.sgprReady[o.Reg+1] = ready
	case siasm.OperandVCC:
		w.vcc = v
		w.vccReady = ready
	case siasm.OperandEXEC:
		w.exec = v & w.valid
		w.execReady = ready
	default:
		return fmt.Errorf("amdsim: operand %s is not a 64-bit destination", o)
	}
	return nil
}

// Issue implements simt.ISA: it attempts to issue the wavefront's next
// instruction at the current cycle.
func (d *Device) Issue(c *cu, w *wavefront) (bool, int64, error) {
	prog := d.prog
	if w.PC < 0 || w.PC >= len(prog.Instrs) {
		return false, 0, fmt.Errorf("amdsim: kernel %s: invalid PC %d (wave %d of group %d)",
			prog.Name, w.PC, w.Idx, w.Blk.ID)
	}
	in := &prog.Instrs[w.PC]
	if ready := depReady(w, in); ready > d.Cycle {
		return false, ready, nil
	}
	st := &w.Arch
	lat := d.latency(siasm.OpClass(in.Op))
	active := st.exec & st.valid
	ww := d.Chip.WarpWidth

	d.Counters.Instructions++
	switch siasm.OpClass(in.Op) {
	case siasm.ClassVector, siasm.ClassSFU, siasm.ClassLDS, siasm.ClassGlobal:
		d.Counters.LaneInstructions += int64(bits.OnesCount64(active))
	default:
		d.Counters.LaneInstructions++
	}

	switch in.Op {
	case siasm.OpSNop, siasm.OpSWaitcnt:
		w.PC++

	case siasm.OpSEndpgm:
		w.PC++
		d.Finish(c, w)

	case siasm.OpSBranch:
		w.PC = in.Target

	case siasm.OpSCBranch:
		taken := false
		switch in.BrCond {
		case siasm.BrSCC0:
			taken = !st.scc
		case siasm.BrSCC1:
			taken = st.scc
		case siasm.BrVCCZ:
			taken = st.vcc == 0
		case siasm.BrVCCNZ:
			taken = st.vcc != 0
		case siasm.BrEXECZ:
			taken = active == 0
		case siasm.BrEXECNZ:
			taken = active != 0
		}
		if taken {
			w.PC = in.Target
		} else {
			w.PC++
		}

	case siasm.OpSBarrier:
		w.PC++
		d.Barrier(w)

	case siasm.OpSMov32, siasm.OpSAdd, siasm.OpSSub, siasm.OpSMul,
		siasm.OpSAnd32, siasm.OpSOr32, siasm.OpSXor32,
		siasm.OpSLshl, siasm.OpSLshr, siasm.OpSMin, siasm.OpSMax:
		if err := d.execScalar32(c, w, in, lat); err != nil {
			return false, 0, err
		}
		w.PC++

	case siasm.OpSCmp:
		a, err := d.readOp32(c, w, 0, in.Src[0])
		if err != nil {
			return false, 0, err
		}
		b, err := d.readOp32(c, w, 0, in.Src[1])
		if err != nil {
			return false, 0, err
		}
		st.scc = in.Cond.Eval(in.CmpTy, a, b)
		st.sccReady = d.Cycle + lat
		w.PC++

	case siasm.OpSLoadDW:
		st.sgprs[in.Dst.Reg] = d.LC.Args[in.KArg]
		st.sgprReady[in.Dst.Reg] = d.Cycle + lat
		w.PC++

	case siasm.OpSMov64, siasm.OpSNot64, siasm.OpSAnd64, siasm.OpSOr64,
		siasm.OpSXor64, siasm.OpSAndn264:
		if err := d.execScalar64(st, in, lat); err != nil {
			return false, 0, err
		}
		w.PC++

	case siasm.OpSAndSaveexec, siasm.OpSOrSaveexec:
		s0, err := st.read64(in.Src[0])
		if err != nil {
			return false, 0, err
		}
		old := st.exec
		if err := st.write64(in.Dst, old, d.Cycle+lat); err != nil {
			return false, 0, err
		}
		if in.Op == siasm.OpSAndSaveexec {
			st.exec = (old & s0) & st.valid
		} else {
			st.exec = (old | s0) & st.valid
		}
		st.execReady = d.Cycle + lat
		st.scc = st.exec != 0
		st.sccReady = d.Cycle + lat
		w.PC++

	case siasm.OpVCmp:
		var mask uint64
		for lane := 0; lane < ww; lane++ {
			if active&(1<<lane) == 0 {
				continue
			}
			a, err := d.readOp32(c, w, lane, in.Src[0])
			if err != nil {
				return false, 0, err
			}
			b, err := d.readOp32(c, w, lane, in.Src[1])
			if err != nil {
				return false, 0, err
			}
			if in.Cond.Eval(in.CmpTy, a, b) {
				mask |= 1 << lane
			}
		}
		st.vcc = mask
		st.vccReady = d.Cycle + lat
		w.PC++

	case siasm.OpDSRead, siasm.OpDSWrite:
		if err := d.execLDS(c, w, in, active, ww); err != nil {
			return false, 0, err
		}
		if in.Op == siasm.OpDSRead {
			w.RegReady[in.Dst.Reg] = d.Cycle + lat
		}
		w.PC++

	case siasm.OpBufLoad, siasm.OpBufStor:
		if err := d.execBuffer(c, w, in, active, ww); err != nil {
			return false, 0, err
		}
		if in.Op == siasm.OpBufLoad {
			w.RegReady[in.Dst.Reg] = d.Cycle + lat
		}
		w.PC++

	default: // vector ALU/SFU
		for lane := 0; lane < ww; lane++ {
			if active&(1<<lane) == 0 {
				continue
			}
			v, err := d.execVALU(c, w, lane, in)
			if err != nil {
				return false, 0, err
			}
			d.writeVGPR(c, w, lane, in.Dst.Reg, v)
		}
		w.RegReady[in.Dst.Reg] = d.Cycle + lat
		w.PC++
	}

	if w.PC >= len(prog.Instrs) && !w.Done {
		return false, 0, fmt.Errorf("amdsim: kernel %s: control flow fell off program end", prog.Name)
	}
	return true, 0, nil
}

func (d *Device) execScalar32(c *cu, w *wavefront, in *siasm.Instr, lat int64) error {
	a, err := d.readOp32(c, w, 0, in.Src[0])
	if err != nil {
		return err
	}
	var b uint32
	if in.Src[1].Kind != siasm.OperandNone {
		b, err = d.readOp32(c, w, 0, in.Src[1])
		if err != nil {
			return err
		}
	}
	var v uint32
	switch in.Op {
	case siasm.OpSMov32:
		v = a
	case siasm.OpSAdd:
		v = a + b
	case siasm.OpSSub:
		v = a - b
	case siasm.OpSMul:
		v = uint32(int32(a) * int32(b))
	case siasm.OpSAnd32:
		v = a & b
	case siasm.OpSOr32:
		v = a | b
	case siasm.OpSXor32:
		v = a ^ b
	case siasm.OpSLshl:
		v = a << (b & 31)
	case siasm.OpSLshr:
		v = a >> (b & 31)
	case siasm.OpSMin:
		if int32(a) < int32(b) {
			v = a
		} else {
			v = b
		}
	case siasm.OpSMax:
		if int32(a) > int32(b) {
			v = a
		} else {
			v = b
		}
	}
	if in.Dst.Kind != siasm.OperandSReg {
		return fmt.Errorf("amdsim: scalar destination %s is not an SGPR", in.Dst)
	}
	w.Arch.sgprs[in.Dst.Reg] = v
	w.Arch.sgprReady[in.Dst.Reg] = d.Cycle + lat
	return nil
}

func (d *Device) execScalar64(st *waveState, in *siasm.Instr, lat int64) error {
	s0, err := st.read64(in.Src[0])
	if err != nil {
		return err
	}
	var s1 uint64
	if in.Src[1].Kind != siasm.OperandNone {
		s1, err = st.read64(in.Src[1])
		if err != nil {
			return err
		}
	}
	var v uint64
	switch in.Op {
	case siasm.OpSMov64:
		v = s0
	case siasm.OpSNot64:
		v = ^s0
	case siasm.OpSAnd64:
		v = s0 & s1
	case siasm.OpSOr64:
		v = s0 | s1
	case siasm.OpSXor64:
		v = s0 ^ s1
	case siasm.OpSAndn264:
		v = s0 &^ s1
	}
	return st.write64(in.Dst, v, d.Cycle+lat)
}

func (d *Device) execVALU(c *cu, w *wavefront, lane int, in *siasm.Instr) (uint32, error) {
	a, err := d.readOp32(c, w, lane, in.Src[0])
	if err != nil {
		return 0, err
	}
	var b uint32
	if in.Src[1].Kind != siasm.OperandNone {
		b, err = d.readOp32(c, w, lane, in.Src[1])
		if err != nil {
			return 0, err
		}
	}
	fa := math.Float32frombits(a)
	fb := math.Float32frombits(b)

	switch in.Op {
	case siasm.OpVMov:
		return a, nil
	case siasm.OpVAddI:
		return a + b, nil
	case siasm.OpVSubI:
		return a - b, nil
	case siasm.OpVMulI:
		return uint32(int32(a) * int32(b)), nil
	case siasm.OpVMinI:
		if int32(a) < int32(b) {
			return a, nil
		}
		return b, nil
	case siasm.OpVMaxI:
		if int32(a) > int32(b) {
			return a, nil
		}
		return b, nil
	case siasm.OpVAnd:
		return a & b, nil
	case siasm.OpVOr:
		return a | b, nil
	case siasm.OpVXor:
		return a ^ b, nil
	case siasm.OpVLshlrev:
		return b << (a & 31), nil
	case siasm.OpVLshrrev:
		return b >> (a & 31), nil
	case siasm.OpVAddF:
		return math.Float32bits(fa + fb), nil
	case siasm.OpVSubF:
		return math.Float32bits(fa - fb), nil
	case siasm.OpVMulF:
		return math.Float32bits(fa * fb), nil
	case siasm.OpVMacF:
		dv := d.readVGPR(c, w, lane, in.Dst.Reg)
		fd := math.Float32frombits(dv)
		return math.Float32bits(float32(math.FMA(float64(fa), float64(fb), float64(fd)))), nil
	case siasm.OpVMinF:
		return math.Float32bits(simt.FMin(fa, fb)), nil
	case siasm.OpVMaxF:
		return math.Float32bits(simt.FMax(fa, fb)), nil
	case siasm.OpVRcpF:
		return math.Float32bits(1 / fa), nil
	case siasm.OpVSqrtF:
		return math.Float32bits(float32(math.Sqrt(float64(fa)))), nil
	case siasm.OpVExpF:
		return math.Float32bits(float32(math.Exp2(float64(fa)))), nil
	case siasm.OpVLogF:
		return math.Float32bits(float32(math.Log2(float64(fa)))), nil
	case siasm.OpVCvtFI:
		return math.Float32bits(float32(int32(a))), nil
	case siasm.OpVCvtIF:
		return uint32(simt.F2I(fa)), nil
	case siasm.OpVCndmask:
		if w.Arch.vcc&(1<<lane) != 0 {
			return b, nil
		}
		return a, nil
	default:
		return 0, fmt.Errorf("amdsim: unhandled vector opcode %v", in.Op)
	}
}

func (d *Device) execLDS(c *cu, w *wavefront, in *siasm.Instr, active uint64, ww int) error {
	g := w.Blk
	for lane := 0; lane < ww; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		addrOp := in.Src[0]
		dataOp := in.Src[1]
		addr, err := d.readOp32(c, w, lane, addrOp)
		if err != nil {
			return err
		}
		addr += uint32(in.MemOff)
		if addr%4 != 0 {
			return fmt.Errorf("amdsim: kernel LDS access misaligned %#x (PC %d)", addr, w.PC)
		}
		if int(addr)+4 > g.LocalCount {
			return fmt.Errorf("amdsim: LDS access %#x beyond group allocation %d (PC %d)", addr, g.LocalCount, w.PC)
		}
		phys := g.LocalBase + int(addr)
		if in.Op == siasm.OpDSRead {
			if t := d.Tracer; t != nil {
				t.LocalAccess(c.ID, phys, 4, d.Cycle, false)
			}
			v := binary.LittleEndian.Uint32(c.Local[phys:])
			d.writeVGPR(c, w, lane, in.Dst.Reg, v)
		} else {
			v, err := d.readOp32(c, w, lane, dataOp)
			if err != nil {
				return err
			}
			if t := d.Tracer; t != nil {
				t.LocalAccess(c.ID, phys, 4, d.Cycle, true)
			}
			binary.LittleEndian.PutUint32(c.Local[phys:], v)
		}
	}
	return nil
}

func (d *Device) execBuffer(c *cu, w *wavefront, in *siasm.Instr, active uint64, ww int) error {
	for lane := 0; lane < ww; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		if in.Op == siasm.OpBufLoad {
			addr, err := d.readOp32(c, w, lane, in.Src[0])
			if err != nil {
				return err
			}
			addr += uint32(in.MemOff)
			if addr%4 != 0 {
				return fmt.Errorf("amdsim: misaligned global access %#x (PC %d)", addr, w.PC)
			}
			v, err := d.Memory.Load32(addr)
			if err != nil {
				return fmt.Errorf("amdsim: PC %d: %w", w.PC, err)
			}
			d.writeVGPR(c, w, lane, in.Dst.Reg, v)
		} else {
			// buffer_store_dword vsrc, vaddr.
			v, err := d.readOp32(c, w, lane, in.Src[0])
			if err != nil {
				return err
			}
			addr, err := d.readOp32(c, w, lane, in.Src[1])
			if err != nil {
				return err
			}
			addr += uint32(in.MemOff)
			if addr%4 != 0 {
				return fmt.Errorf("amdsim: misaligned global access %#x (PC %d)", addr, w.PC)
			}
			if err := d.Memory.Store32(addr, v); err != nil {
				return fmt.Errorf("amdsim: PC %d: %w", w.PC, err)
			}
		}
	}
	return nil
}
