package simt

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/wire"
)

// stubState is a toy ISA's per-warp state: each warp issues three
// instructions, then exits.
type stubState struct{ issued uint32 }

type stubISA struct{ c *Core[stubState] }

type stubKernel struct{}

func (stubKernel) KernelName() string       { return "stub" }
func (stubKernel) VectorRegsPerThread() int { return 2 }
func (stubKernel) LocalBytesPerGroup() int  { return 64 }

func (s *stubISA) Bind(gpu.Kernel) (int, error) { return 0, nil }

func (s *stubISA) Issue(u *Unit[stubState], w *Warp[stubState]) (bool, int64, error) {
	w.PC++
	if w.Arch.issued++; w.Arch.issued == 3 {
		s.c.Finish(u, w)
	}
	return true, 0, nil
}

func (s *stubISA) InitWarp(_ *Unit[stubState], w *Warp[stubState], _ uint64) { w.Arch = stubState{} }

func (s *stubISA) CopyWarp(dst, src *stubState) { *dst = *src }

func (s *stubISA) EncodeWarp(w *wire.Writer, wp *Warp[stubState]) {
	w.Int(wp.Idx)
	w.Int(wp.PC)
	w.U32(wp.Arch.issued)
	w.I64s(wp.RegReady)
	w.Bool(wp.AtBarrier)
	w.Bool(wp.Done)
	w.I64(wp.WakeAt)
	w.Int(wp.ThreadBase)
}

func (s *stubISA) DecodeWarp(r *wire.Reader, wp *Warp[stubState]) error {
	wp.Idx = r.Int()
	wp.PC = r.Int()
	wp.Arch.issued = r.U32()
	wp.RegReady = r.I64s()
	wp.AtBarrier = r.Bool()
	wp.Done = r.Bool()
	wp.WakeAt = r.I64()
	wp.ThreadBase = r.Int()
	return nil
}

func newStubCore(t *testing.T) *Core[stubState] {
	t.Helper()
	isa := &stubISA{}
	c := MakeCore[stubState](chips.MiniNVIDIA(), "stub", isa)
	isa.c = &c
	return &c
}

// midLaunchSnapshot captures a stub launch of two blocks mid-flight:
// unit 0 then holds both blocks in slots 0 and 1, unit 1 holds none.
func midLaunchSnapshot(t *testing.T) *snapshot[stubState] {
	t.Helper()
	c := newStubCore(t)
	var snap gpu.Snapshot
	c.SetCheckpointHook(2, func(s gpu.Snapshot) int64 {
		snap = s
		return -1
	})
	if err := c.Launch(gpu.LaunchSpec{Kernel: stubKernel{}, Grid: gpu.D1(2), Group: gpu.D1(64)}); err != nil {
		t.Fatal(err)
	}
	s := snap.(*snapshot[stubState])
	if !slices.Equal(s.units[0].slots, []bool{true, true, false, false}) || slices.Contains(s.units[1].slots, true) {
		t.Fatalf("unexpected residency: unit 0 %v, unit 1 %v", s.units[0].slots, s.units[1].slots)
	}
	return s
}

// clone copies the parts of snap the malformations below edit.
func clone(snap *snapshot[stubState]) *snapshot[stubState] {
	out := *snap
	out.units = slices.Clone(snap.units)
	for i := range out.units {
		u := &out.units[i]
		u.regs = slices.Clone(u.regs)
		u.local = slices.Clone(u.local)
		u.slots = slices.Clone(u.slots)
		u.blocks = slices.Clone(u.blocks)
	}
	return &out
}

// TestRestoreRejectsMalformedSnapshots holds one malformed snapshot per
// validation rule. Each must be refused by Restore and by the decoder,
// never restored over stale state or left to panic at the next launch.
func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	good := midLaunchSnapshot(t)
	cases := []struct {
		name string
		edit func(s *snapshot[stubState])
		want string
	}{
		{"unit count", func(s *snapshot[stubState]) { s.units = s.units[:1] }, "units"},
		{"short registers in a later unit", func(s *snapshot[stubState]) {
			s.units[1].regs = s.units[1].regs[:len(s.units[1].regs)-1]
		}, "geometry"},
		{"short local memory in a later unit", func(s *snapshot[stubState]) {
			s.units[1].local = s.units[1].local[:len(s.units[1].local)-1]
		}, "geometry"},
		{"more slots than block entries", func(s *snapshot[stubState]) {
			s.units[0].slots = append(s.units[0].slots, false)
		}, "block entries"},
		{"more block entries than slots", func(s *snapshot[stubState]) {
			s.units[1].blocks = append(s.units[1].blocks, nil)
		}, "block entries"},
		{"slots beyond the chip limit", func(s *snapshot[stubState]) {
			s.units[1].slots = make([]bool, 5)
			s.units[1].blocks = make([]*blockImage[stubState], 5)
		}, "chip limit"},
		{"set slot without a block", func(s *snapshot[stubState]) { s.units[1].slots[0] = true }, "disagrees"},
		{"block in a free slot", func(s *snapshot[stubState]) { s.units[0].slots[1] = false }, "disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := clone(good)
			tc.edit(bad)
			c := newStubCore(t)
			err := c.Restore(bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore: got %v, want an error mentioning %q", err, tc.want)
			}
			mem, meta, err := c.MarshalSnapshot(bad)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.UnmarshalSnapshot(mem, meta); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("UnmarshalSnapshot: got %v, want an error mentioning %q", err, tc.want)
			}
		})
	}

	// The unedited snapshot restores, round-trips through the codec and
	// resumes to the uninterrupted run's end state.
	spec := gpu.LaunchSpec{Kernel: stubKernel{}, Grid: gpu.D1(2), Group: gpu.D1(64)}
	full := newStubCore(t)
	if err := full.Launch(spec); err != nil {
		t.Fatal(err)
	}
	c := newStubCore(t)
	if err := c.Restore(clone(good)); err != nil {
		t.Fatal(err)
	}
	mem, meta, err := c.MarshalSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UnmarshalSnapshot(mem, meta); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(spec); err != nil {
		t.Fatal(err)
	}
	if c.Stats() != full.Stats() {
		t.Fatalf("resumed run ends with %+v, uninterrupted with %+v", c.Stats(), full.Stats())
	}
}
