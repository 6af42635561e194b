package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func fakeResult(n int) *finject.Result {
	res := &finject.Result{Injections: n, Occupancy: 0.5}
	res.Outcomes[gpu.OutcomeMasked] = n - 3
	res.Outcomes[gpu.OutcomeSDC] = 2
	res.Outcomes[gpu.OutcomeDUE] = 1
	res.GoldenStats = gpu.RunStats{Cycles: 1234, Instructions: 99, Launches: 1}
	return res
}

func TestMemoryStoreLRU(t *testing.T) {
	m := NewMemoryStore(2)
	k := func(i uint64) CellKey {
		return CellSpec{Chip: "c", Benchmark: "b", Seed: i}.Key()
	}
	for i := uint64(0); i < 3; i++ {
		if err := m.Put(k(i), fakeResult(int(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("capacity 2 store holds %d", m.Len())
	}
	if _, ok, _ := m.Get(k(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	// Touch k(1) so k(2) becomes the eviction candidate.
	if _, ok, _ := m.Get(k(1)); !ok {
		t.Fatal("k1 missing")
	}
	if err := m.Put(k(3), fakeResult(13)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get(k(1)); !ok {
		t.Fatal("recently used k1 was evicted")
	}
	if _, ok, _ := m.Get(k(2)); ok {
		t.Fatal("least recently used k2 survived")
	}
}

func TestMemoryStoreOverwrite(t *testing.T) {
	m := NewMemoryStore(0)
	key := CellSpec{Chip: "c", Benchmark: "b"}.Key()
	if err := m.Put(key, fakeResult(10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(key, fakeResult(20)); err != nil {
		t.Fatal(err)
	}
	res, ok, err := m.Get(key)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if res.Injections != 20 {
		t.Fatalf("overwrite lost: %d", res.Injections)
	}
	if m.Len() != 1 {
		t.Fatalf("len %d after overwrite", m.Len())
	}
}

// detailResult is fakeResult plus per-injection records, so the wire
// round trip covers the detail path too.
func detailResult(n int) *finject.Result {
	res := fakeResult(n)
	res.Records = []finject.Record{
		{Fault: gpu.Fault{Structure: gpu.RegisterFile, Unit: 1, Entry: 2, Bit: 3, Cycle: 40}, Outcome: gpu.OutcomeSDC, CorruptBytes: 16},
		{Fault: gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 9, Bit: 7, Width: 4, Cycle: 77}, Outcome: gpu.OutcomeMasked},
	}
	return res
}

func TestBinaryStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	b, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
	k2 := CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key()
	if err := b.Put(k1, fakeResult(50)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(k2, detailResult(60)); err != nil {
		t.Fatal(err)
	}
	// Overwrite k1; the newest frame must win after reopen.
	want1 := detailResult(70)
	if err := b.Put(k1, want1); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.Len() != 2 || b2.Records() != 3 {
		t.Fatalf("reopened store: len=%d records=%d, want 2/3", b2.Len(), b2.Records())
	}
	got, ok, err := b2.Get(k1)
	if err != nil || !ok {
		t.Fatalf("k1 after reopen: %v %v", ok, err)
	}
	if got.Injections != want1.Injections || got.Outcomes != want1.Outcomes ||
		got.GoldenStats != want1.GoldenStats || got.Occupancy != want1.Occupancy ||
		len(got.Records) != len(want1.Records) {
		t.Fatalf("k1 round trip: got %+v want %+v", got, want1)
	}
	for i := range want1.Records {
		if got.Records[i] != want1.Records[i] {
			t.Fatalf("k1 detail record %d: got %+v want %+v", i, got.Records[i], want1.Records[i])
		}
	}
	if got, ok, _ := b2.Get(k2); !ok || got.Injections != 60 || len(got.Records) != 2 {
		t.Fatalf("k2 round trip: %v %+v", ok, got)
	}
}

// TestBinaryStoreHealsTornTail pins the crash contract: any prefix of an
// interrupted final append is truncated away on open, complete frames
// survive, and the store keeps appending cleanly afterwards.
func TestBinaryStoreHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	b, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
	if err := b.Put(k1, fakeResult(50)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a process killed mid-append: a second frame with only its
	// first half on disk.
	var w wire.Writer
	w.String(string(CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key()))
	finject.EncodeResult(&w, fakeResult(60))
	frame := wire.AppendRecord(nil, wire.RecCell, w.Bytes())
	torn := append(append([]byte(nil), whole...), frame[:len(frame)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatalf("torn tail was not healed: %v", err)
	}
	if b2.Len() != 1 || b2.Records() != 1 {
		t.Fatalf("after healing: len=%d records=%d, want 1/1", b2.Len(), b2.Records())
	}
	// The next append must land on the healed boundary.
	k3 := CellSpec{Chip: "c", Benchmark: "b", Seed: 3}.Key()
	if err := b2.Put(k3, fakeResult(70)); err != nil {
		t.Fatal(err)
	}
	b2.Close()
	b3, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	if b3.Len() != 2 {
		t.Fatalf("append after healing lost cells: len=%d", b3.Len())
	}
}

func TestBinaryStoreRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	b, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
	if err := b.Put(k1, fakeResult(50)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key(), fakeResult(60)); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// Flip one byte inside the FIRST frame: fully present, bad CRC — a
	// hard error, never silently healed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[wire.HeaderSize+20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path, FormatBinary); err == nil {
		t.Fatal("corrupt store opened cleanly")
	}
}

func TestBinaryStoreCompactIsByteStable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cells.store")
	b, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]CellKey, 5)
	for i := range keys {
		keys[i] = CellSpec{Chip: "c", Benchmark: "b", Seed: uint64(i)}.Key()
	}
	// Puts in scrambled order with overwrites; compaction must emit
	// sorted keys so equal stores are byte-identical on disk.
	for _, i := range []int{3, 1, 4, 0, 2, 1, 3} {
		if err := b.Put(keys[i], fakeResult(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Records() != 5 || b.Len() != 5 {
		t.Fatalf("after compact: records=%d len=%d", b.Records(), b.Len())
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("repeated compaction changed the file bytes")
	}
	// The store stays fully usable: appends land in the renamed file and
	// every cell, old and new, survives a reopen with its latest value.
	extra := CellSpec{Chip: "c", Benchmark: "b", Seed: 99}.Key()
	if err := b.Put(extra, fakeResult(99)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 6 || reopened.Records() != 6 {
		t.Fatalf("after compact+put+reopen: len=%d records=%d, want 6/6", reopened.Len(), reopened.Records())
	}
	for i, k := range append(keys, extra) {
		want := 10 + i
		if k == extra {
			want = 99
		}
		if res, ok, _ := reopened.Get(k); !ok || res.Injections != want {
			t.Fatalf("cell %d lost across compact+reopen: ok=%v res=%+v", i, ok, res)
		}
	}
	reopened.Close()

	// A sibling store built from the same cells compacts to the same
	// bytes regardless of insertion order.
	path2 := filepath.Join(dir, "cells2.store")
	b2, err := OpenStore(path2, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 4, 1, 3} {
		if err := b2.Put(keys[i], fakeResult(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b2.Compact(); err != nil {
		t.Fatal(err)
	}
	b2.Close()
	sibling, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, sibling) {
		t.Fatal("equal stores are not byte-identical after compaction")
	}
}

func TestBinaryStoreAutoCompactOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	b, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	key := CellSpec{Chip: "c", Benchmark: "b"}.Key()
	for i := 0; i <= CompactDeadThreshold+1; i++ {
		if err := b.Put(key, fakeResult(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Records() != 1 || b2.Len() != 1 {
		t.Fatalf("auto-compaction left records=%d len=%d, want 1/1", b2.Records(), b2.Len())
	}
	if res, ok, _ := b2.Get(key); !ok || res.Injections != CompactDeadThreshold+2 {
		t.Fatalf("latest value lost: ok=%v res=%+v", ok, res)
	}
	// Below the threshold, open must not rewrite the file.
	for i := 0; i < 3; i++ {
		if err := b2.Put(key, fakeResult(50+i)); err != nil {
			t.Fatal(err)
		}
	}
	b2.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || b3.Records() != 4 {
		t.Fatalf("open below threshold rewrote the file: %d -> %d bytes, records=%d", len(before), len(after), b3.Records())
	}
}

// countFrames returns the number of cell frames in the store file at
// path, read from disk rather than from a store's in-memory index.
func countFrames(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := ScanStore(data, func(CellKey, *finject.Result) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDiskStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	d, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
	k2 := CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key()
	want1, want2 := fakeResult(50), fakeResult(60)
	if err := d.Put(k1, want1); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(k2, want2); err != nil {
		t.Fatal(err)
	}
	// Overwrite k1; the newest record must win after reopen.
	want1b := fakeResult(70)
	if err := d.Put(k1, want1b); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 2 {
		t.Fatalf("reopened store holds %d cells, want 2", d2.Len())
	}
	got, ok, err := d2.Get(k1)
	if err != nil || !ok {
		t.Fatalf("k1 after reopen: %v %v", ok, err)
	}
	if got.Injections != want1b.Injections || got.Outcomes != want1b.Outcomes ||
		got.GoldenStats != want1b.GoldenStats || got.Occupancy != want1b.Occupancy {
		t.Fatalf("k1 round trip: got %+v want %+v", got, want1b)
	}
	if got, ok, _ := d2.Get(k2); !ok || got.Injections != 60 {
		t.Fatalf("k2 round trip: %v %+v", ok, got)
	}
}

func TestDiskStoreCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	d, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
	k2 := CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key()
	// Overwrites are appends: 10 puts over 2 keys leave 8 dead records.
	for i := 0; i < 5; i++ {
		if err := d.Put(k1, fakeResult(10+i)); err != nil {
			t.Fatal(err)
		}
		if err := d.Put(k2, fakeResult(20+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := countFrames(t, path); got != 10 {
		t.Fatalf("file has %d records before compaction, want 10", got)
	}
	if d.Records() != 10 || d.Len() != 2 {
		t.Fatalf("records=%d len=%d", d.Records(), d.Len())
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := countFrames(t, path); got != 2 {
		t.Fatalf("file has %d records after compaction, want 2", got)
	}
	if d.Records() != 2 || d.Len() != 2 {
		t.Fatalf("after compact: records=%d len=%d", d.Records(), d.Len())
	}
	// The store stays fully usable: reads see the latest values and
	// appends land in the renamed file.
	if res, ok, _ := d.Get(k1); !ok || res.Injections != 14 {
		t.Fatalf("k1 after compact: ok=%v res=%+v", ok, res)
	}
	k3 := CellSpec{Chip: "c", Benchmark: "b", Seed: 3}.Key()
	if err := d.Put(k3, fakeResult(30)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: all three cells must be there.
	d2, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, k := range []CellKey{k1, k2, k3} {
		if _, ok, _ := d2.Get(k); !ok {
			t.Fatalf("cell %s lost across compact+reopen", k)
		}
	}
	if res, ok, _ := d2.Get(k2); !ok || res.Injections != 24 {
		t.Fatalf("k2 value wrong after reopen: %+v", res)
	}
}

func TestDiskStoreAutoCompactOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	d, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	key := CellSpec{Chip: "c", Benchmark: "b"}.Key()
	for i := 0; i <= CompactDeadThreshold+1; i++ {
		if err := d.Put(key, fakeResult(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if before := countFrames(t, path); before != CompactDeadThreshold+2 {
		t.Fatalf("setup wrote %d records", before)
	}
	// Open crosses the dead-record threshold and must compact.
	d2, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := countFrames(t, path); got != 1 {
		t.Fatalf("auto-compaction left %d records, want 1", got)
	}
	if res, ok, _ := d2.Get(key); !ok || res.Injections != CompactDeadThreshold+2 {
		t.Fatalf("latest value lost: ok=%v res=%+v", ok, res)
	}
	// Below the threshold, open must not rewrite the file.
	for i := 0; i < 3; i++ {
		if err := d2.Put(key, fakeResult(50+i)); err != nil {
			t.Fatal(err)
		}
	}
	d2.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := OpenStore(path, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || d3.Records() != 4 {
		t.Fatalf("open below threshold rewrote the file: %d -> %d bytes, records=%d", len(before), len(after), d3.Records())
	}
}

// assertUnchangedAfterFailedOpen opens path expecting an error that
// mentions want, and checks the failed open left the file byte for byte
// as it was.
func assertUnchangedAfterFailedOpen(t *testing.T, path, want string) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, FormatBinary)
	if err == nil {
		st.Close()
		t.Fatalf("%s opened cleanly", path)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("open error %q does not mention %q", err, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed open modified %s: %q -> %q", path, before, after)
	}
}

// TestDiskStoreRejectsCorruptFile covers files that carry the wire magic
// but are no store: a header cut short and another wire file kind.
func TestDiskStoreRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	short := filepath.Join(dir, "short.store")
	if err := os.WriteFile(short, []byte(wire.Magic+"\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	assertUnchangedAfterFailedOpen(t, short, "bad magic")
	ladder := filepath.Join(dir, "ladder.store")
	if err := os.WriteFile(ladder, wire.AppendHeader(nil, wire.FileLadder), 0o644); err != nil {
		t.Fatal(err)
	}
	assertUnchangedAfterFailedOpen(t, ladder, "not a store")
}

// TestOpenStoreRejectsLegacyJSON pins the migration contract: a
// JSON-lines store from before the wire format fails to open with the
// fistore command that converts it, and is left byte for byte as it
// was; a format other than FormatBinary is refused before any file is
// created.
func TestOpenStoreRejectsLegacyJSON(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "cells.jsonl")
	row := `{"key":"` + string(CellSpec{Chip: "c", Benchmark: "b"}.Key()) + `","result":{"Injections":9}}` + "\n"
	if err := os.WriteFile(legacy, []byte(row+row[:20]), 0o644); err != nil {
		t.Fatal(err)
	}
	assertUnchangedAfterFailedOpen(t, legacy, "fistore convert "+legacy)

	fresh := filepath.Join(dir, "fresh.store")
	for _, format := range []string{"", "auto", "json", "Binary"} {
		if st, err := OpenStore(fresh, format); err == nil {
			st.Close()
			t.Fatalf("format %q accepted", format)
		}
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused format created the store file: %v", err)
	}
}

// TestDiskStoreGauges pins the store's fi_store_disk_records_live/_dead
// accounting: two cells with one overwrite publish 2 live / 1 dead, and
// Close withdraws the store's contribution.
func TestDiskStoreGauges(t *testing.T) {
	k1 := CellSpec{Chip: "c", Benchmark: "b", Seed: 1}.Key()
	k2 := CellSpec{Chip: "c", Benchmark: "b", Seed: 2}.Key()
	live0 := telemetry.StoreRecordsLive.Value()
	dead0 := telemetry.StoreRecordsDead.Value()
	st, err := OpenStore(filepath.Join(t.TempDir(), "cells.store"), FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for _, put := range []struct {
		k CellKey
		n int
	}{{k1, 10}, {k2, 20}, {k1, 30}} {
		if err := st.Put(put.k, fakeResult(put.n)); err != nil {
			t.Fatal(err)
		}
	}
	if l, d := telemetry.StoreRecordsLive.Value()-live0, telemetry.StoreRecordsDead.Value()-dead0; l != 2 || d != 1 {
		t.Fatalf("history published live=%d dead=%d, want 2/1", l, d)
	}
	st.Close()
	if l, d := telemetry.StoreRecordsLive.Value()-live0, telemetry.StoreRecordsDead.Value()-dead0; l != 0 || d != 0 {
		t.Fatalf("Close left live=%d dead=%d on the gauges", l, d)
	}
}
