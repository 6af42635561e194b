package repro

import (
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/wire"
)

// benchCellResult builds a representative stored cell: aggregate counts
// plus a full per-injection detail stream, the shape a Detail campaign
// persists.
func benchCellResult(n int) *finject.Result {
	res := &finject.Result{Injections: n, Occupancy: 0.42}
	res.Outcomes[gpu.OutcomeMasked] = n - n/8 - n/16
	res.Outcomes[gpu.OutcomeSDC] = n / 8
	res.Outcomes[gpu.OutcomeDUE] = n / 16
	res.GoldenStats = gpu.RunStats{Cycles: 123456, Instructions: 98765, LaneInstructions: 3456789, Launches: 2}
	res.Records = make([]finject.Record, n)
	for i := range res.Records {
		res.Records[i] = finject.Record{
			Fault: gpu.Fault{
				Structure: gpu.RegisterFile, Unit: i % 16, Entry: i % 4096,
				Bit: uint(i % 32), Cycle: int64(100 * i),
			},
			Outcome:      gpu.Outcome(i % int(gpu.NumOutcomes)),
			CorruptBytes: (i % 7) * 4,
		}
	}
	return res
}

// benchSeedStore writes the given number of detailed cell results to a
// fresh store and returns its path.
func benchSeedStore(b *testing.B, dir string, cells, perCell int) string {
	b.Helper()
	path := filepath.Join(dir, "cells.store")
	st, err := campaign.OpenStore(path, campaign.FormatBinary)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		key := campaign.CellSpec{Chip: "Mini NVIDIA", Benchmark: "matrixMul", Seed: uint64(i)}.Key()
		if err := st.Put(key, benchCellResult(perCell)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkWireEncodeDecode measures the wire codec round trip for one
// detailed cell result — the per-Put and per-open unit of work of the
// binary store.
func BenchmarkWireEncodeDecode(b *testing.B) {
	res := benchCellResult(400)
	var frame []byte
	for i := 0; i < b.N; i++ {
		var w wire.Writer
		finject.EncodeResult(&w, res)
		frame = w.Bytes()
		got, err := finject.DecodeResult(wire.NewReader(frame))
		if err != nil {
			b.Fatal(err)
		}
		if got.Injections != res.Injections || len(got.Records) != len(res.Records) {
			b.Fatal("round trip lost data")
		}
	}
	b.SetBytes(int64(len(frame)))
}

// BenchmarkBinaryStoreOpen measures cold-opening a store: reading the
// file and rebuilding its in-memory index.
func BenchmarkBinaryStoreOpen(b *testing.B) {
	path := benchSeedStore(b, b.TempDir(), 40, 400)
	b.Run("binary", func(b *testing.B) {
		var cells int
		for i := 0; i < b.N; i++ {
			st, err := campaign.OpenStore(path, campaign.FormatBinary)
			if err != nil {
				b.Fatal(err)
			}
			cells = st.Len()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if cells != 40 {
			b.Fatalf("store holds %d cells, want 40", cells)
		}
		b.ReportMetric(float64(cells), "cells")
	})
}
