package simt_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/amdsim"
	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/nvsim"
	"repro/internal/workloads"
)

// miniDevice is the Mini chip device of one vendor, seen through the
// interfaces the ladder files use.
type miniDevice interface {
	gpu.Device
	gpu.SnapshotCodec
}

func newMini(tb testing.TB, amd bool) miniDevice {
	tb.Helper()
	var (
		d   miniDevice
		err error
	)
	if amd {
		d, err = amdsim.New(chips.MiniAMD())
	} else {
		d, err = nvsim.New(chips.MiniNVIDIA())
	}
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// seedMetas returns real snapshot metas: ladder rungs of the scan
// benchmark (between launches, mid-launch with warps at barriers, and
// after the run) on the vendor's Mini chip.
func seedMetas(tb testing.TB, amd bool) [][]byte {
	tb.Helper()
	d := newMini(tb, amd)
	bench, err := workloads.ByName("scan")
	if err != nil {
		tb.Fatal(err)
	}
	hp, err := bench.New(d.Vendor())
	if err != nil {
		tb.Fatal(err)
	}
	var snaps []gpu.Snapshot
	d.SetCheckpointHook(0, func(s gpu.Snapshot) int64 {
		snaps = append(snaps, s)
		return s.Cycle() + 700
	})
	if err := hp.Run(d); err != nil {
		tb.Fatal(err)
	}
	snaps = append(snaps, d.Snapshot())
	var metas [][]byte
	for _, s := range snaps {
		_, meta, err := d.MarshalSnapshot(s)
		if err != nil {
			tb.Fatal(err)
		}
		metas = append(metas, meta)
	}
	return metas
}

// FuzzUnmarshalSnapshot attacks the simulators' real snapshot decoder
// (ladder files are read back from disk). For any bytes: decoding never
// panics and allocates at most a small multiple of the input; an
// accepted meta re-marshals to identical bytes; and an accepted meta
// restores cleanly into a fresh Mini device, because the decoder applies
// Restore's validation itself.
func FuzzUnmarshalSnapshot(f *testing.F) {
	for _, amd := range []bool{false, true} {
		for _, meta := range seedMetas(f, amd) {
			f.Add(amd, meta)
		}
	}
	f.Fuzz(func(t *testing.T, amd bool, meta []byte) {
		d := newMini(t, amd)
		mem := d.Mem().Image()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := d.UnmarshalSnapshot(mem, meta)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(meta))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(meta), alloc)
		}
		if err != nil {
			return
		}

		_, again, err := d.MarshalSnapshot(snap)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(again, meta) {
			t.Fatalf("accepted meta re-marshals differently (%d bytes in, %d out)", len(meta), len(again))
		}
		if err := newMini(t, amd).Restore(snap); err != nil {
			t.Fatalf("accepted meta does not restore: %v", err)
		}
	})
}
