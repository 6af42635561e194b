package wire

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gpu"
	"repro/internal/telemetry"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, kind := range []FileKind{FileStore, FileLadder} {
		b := AppendHeader(nil, kind)
		if len(b) != HeaderSize {
			t.Fatalf("header is %d bytes, want %d", len(b), HeaderSize)
		}
		got, off, err := ParseHeader(b)
		if err != nil || got != kind || off != HeaderSize {
			t.Fatalf("ParseHeader(%s) = %v, %d, %v", kind, got, off, err)
		}
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good := AppendHeader(nil, FileStore)

	if _, _, err := ParseHeader([]byte("JSON")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("non-magic bytes: err = %v, want ErrBadMagic", err)
	}
	if _, _, err := ParseHeader(good[:HeaderSize-1]); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short header: err = %v, want ErrBadMagic", err)
	}

	future := append([]byte(nil), good...)
	future[4] = Version + 1
	if _, _, err := ParseHeader(future); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}

	alien := append([]byte(nil), good...)
	alien[5] = 99
	if _, _, err := ParseHeader(alien); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown file kind: err = %v, want ErrCorrupt", err)
	}

	if IsWireFile([]byte(`{"key":"x"}`)) || !IsWireFile(good) {
		t.Fatal("IsWireFile misroutes")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-payload")}
	b := AppendHeader(nil, FileStore)
	for i, p := range payloads {
		b = AppendRecord(b, RecordKind(i+1), p)
	}

	off := HeaderSize
	for i, p := range payloads {
		rec, next, err := NextRecord(b, off)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Kind != RecordKind(i+1) || !bytes.Equal(rec.Payload, p) || rec.Off != off {
			t.Fatalf("record %d decoded as %+v", i, rec)
		}
		off = next
	}
	rec, next, err := NextRecord(b, off)
	if err != nil || rec.Kind != 0 || next != off {
		t.Fatalf("end of buffer: rec=%+v next=%d err=%v", rec, next, err)
	}
}

// TestTornVersusCorrupt pins the crash-recovery contract: any truncation
// of the final record is a torn append (healable), while a bit flip in a
// complete record is corruption (hard error).
func TestTornVersusCorrupt(t *testing.T) {
	b := AppendHeader(nil, FileStore)
	b = AppendRecord(b, RecCell, []byte("first"))
	goodEnd := len(b)
	b = AppendRecord(b, RecCell, []byte("second-record"))

	// Every possible torn tail of the second record scans back to the
	// end of the first.
	for cut := goodEnd + 1; cut < len(b); cut++ {
		var n int
		good, err := ScanRecords(b[:cut], func(Record) error { n++; return nil })
		if err != nil || good != goodEnd || n != 1 {
			t.Fatalf("cut at %d: good=%d n=%d err=%v, want good=%d n=1", cut, good, n, err, goodEnd)
		}
		if _, _, err := NextRecord(b[:cut], goodEnd); !errors.Is(err, ErrTorn) {
			t.Fatalf("cut at %d: NextRecord err = %v, want ErrTorn", cut, err)
		}
	}

	// A flipped payload byte in a fully present record is corruption.
	corrupt := append([]byte(nil), b...)
	corrupt[goodEnd+6] ^= 0x01
	if _, err := ScanRecords(corrupt, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}
}

func TestScanRecordsStopsOnCallbackError(t *testing.T) {
	b := AppendHeader(nil, FileStore)
	b = AppendRecord(b, RecCell, []byte("x"))
	b = AppendRecord(b, RecCell, []byte("y"))
	boom := errors.New("boom")
	n := 0
	if _, err := ScanRecords(b, func(Record) error { n++; return boom }); !errors.Is(err, boom) || n != 1 {
		t.Fatalf("callback error: n=%d err=%v", n, err)
	}
}

// TestBoolRejectsNonCanonicalByte: Writer.Bool emits only 0 and 1, so a
// reader that accepted other bytes would decode inputs it cannot
// re-encode byte for byte.
func TestBoolRejectsNonCanonicalByte(t *testing.T) {
	r := NewReader([]byte{1, 0, 2})
	if !r.Bool() || r.Bool() || r.Err() != nil {
		t.Fatalf("canonical bools: err %v", r.Err())
	}
	if r.Bool() || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("bool byte 2: err %v, want ErrCorrupt", r.Err())
	}
	if r := NewReader([]byte{2, 0, 0, 0, 1, 0xff}); r.Bools() != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Bools with byte 0xff: err %v, want ErrCorrupt", r.Err())
	}
}

func TestCodecPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.I64(-42)
	w.Int(-7)
	w.F64(math.Pi)
	w.F64(math.NaN())
	w.Blob([]byte{1, 2, 3})
	w.Blob(nil)
	w.String("chip/bench")
	w.String("")
	w.U32s([]uint32{9, 8, 7})
	w.U32s(nil)
	w.I64s([]int64{-1, 0, 1})
	w.Bools([]bool{true, false, true})

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xab {
		t.Fatalf("U8 = %x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip")
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %x", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Fatalf("U64 = %x", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.F64(); !math.IsNaN(v) {
		t.Fatalf("F64 NaN = %v", v)
	}
	if v := r.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v", v)
	}
	if v := r.Blob(); v != nil {
		t.Fatalf("empty Blob = %v, want nil", v)
	}
	if v := r.String(); v != "chip/bench" {
		t.Fatalf("String = %q", v)
	}
	if v := r.String(); v != "" {
		t.Fatalf("empty String = %q", v)
	}
	if v := r.U32s(); len(v) != 3 || v[0] != 9 {
		t.Fatalf("U32s = %v", v)
	}
	if v := r.U32s(); v != nil {
		t.Fatalf("empty U32s = %v, want nil", v)
	}
	if v := r.I64s(); len(v) != 3 || v[0] != -1 {
		t.Fatalf("I64s = %v", v)
	}
	if v := r.Bools(); len(v) != 3 || !v[0] || v[1] {
		t.Fatalf("Bools = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	var w Writer
	w.U32(7)
	r := NewReader(w.Bytes())
	r.U64() // short read: poisons
	if r.Err() == nil {
		t.Fatal("short read did not poison the reader")
	}
	if v := r.U32(); v != 0 {
		t.Fatalf("poisoned read returned %d, want zero value", v)
	}
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done after poison = %v", err)
	}

	// Unconsumed trailing bytes are an error too.
	r2 := NewReader(w.Bytes())
	if err := r2.Done(); err == nil {
		t.Fatal("Done with trailing bytes should fail")
	}
}

// TestSliceLenBounds pins the anti-allocation guard: a declared slice
// length beyond the remaining bytes must fail without allocating.
func TestSliceLenBounds(t *testing.T) {
	var w Writer
	w.U32(math.MaxUint32) // declares 4 billion elements, provides none
	for _, read := range []func(r *Reader){
		func(r *Reader) { r.Blob() },
		func(r *Reader) { _ = r.String() },
		func(r *Reader) { r.U32s() },
		func(r *Reader) { r.I64s() },
		func(r *Reader) { r.Bools() },
	} {
		r := NewReader(w.Bytes())
		read(r)
		if r.Err() == nil {
			t.Fatal("implausible slice length was accepted")
		}
	}
}

// --- ladder round trip over a fake device codec -------------------------

// fakeSnap is a minimal gpu.Snapshot whose device state is just a cycle
// and an opaque tag, with its memory held as a MemImage directly.
type fakeSnap struct {
	cycle int64
	mem   *gpu.MemImage
	tag   []byte
}

func (s *fakeSnap) Cycle() int64     { return s.cycle }
func (s *fakeSnap) SizeBytes() int64 { return s.mem.SizeBytes() }

// fakeCodec marshals fakeSnaps; its meta blob carries cycle + tag.
type fakeCodec struct{}

func (fakeCodec) MarshalSnapshot(s gpu.Snapshot) (*gpu.MemImage, []byte, error) {
	fs := s.(*fakeSnap)
	var w Writer
	w.I64(fs.cycle)
	w.Blob(fs.tag)
	return fs.mem, w.Bytes(), nil
}

func (fakeCodec) UnmarshalSnapshot(mem *gpu.MemImage, meta []byte) (gpu.Snapshot, error) {
	r := NewReader(meta)
	s := &fakeSnap{cycle: r.I64(), tag: r.Blob(), mem: mem}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// fill returns one page of the given fill byte.
func fill(b byte) []byte {
	pg := make([]byte, gpu.PageSize)
	for i := range pg {
		pg[i] = b
	}
	return pg
}

// snap builds a fake snapshot over the given pages.
func snap(t *testing.T, cycle int64, tag string, pages ...[]byte) *fakeSnap {
	t.Helper()
	hwm := uint32(len(pages) * gpu.PageSize)
	mem, err := gpu.NewMappedImage(pages, hwm, hwm)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeSnap{cycle: cycle, mem: mem, tag: []byte(tag)}
}

func TestLadderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ladder")
	info := LadderInfo{Chip: "Mini Test", Benchmark: "vectoradd", Interval: 0}

	p1, p2, p3, zero := fill(0x11), fill(0x22), fill(0x33), make([]byte, gpu.PageSize)
	snaps := []gpu.Snapshot{
		snap(t, 100, "rung0", p1, p2, zero),
		snap(t, 200, "rung1", p1, p3, zero), // shares p1 and the zero page with rung0
	}

	stored0 := telemetry.WirePagesStored.Value()
	deduped0 := telemetry.WirePagesDeduped.Value()
	saves0 := telemetry.WireLadderSaves.Value()
	if err := WriteLadder(path, info, fakeCodec{}, snaps); err != nil {
		t.Fatal(err)
	}
	// 6 page references, 4 distinct pages: p1, p2, zero, p3.
	if got := telemetry.WirePagesStored.Value() - stored0; got != 4 {
		t.Fatalf("pages stored = %d, want 4", got)
	}
	if got := telemetry.WirePagesDeduped.Value() - deduped0; got != 2 {
		t.Fatalf("pages deduped = %d, want 2", got)
	}
	if got := telemetry.WireLadderSaves.Value() - saves0; got != 1 {
		t.Fatalf("ladder saves = %d, want 1", got)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mmap0 := telemetry.WireLadderMmapBytes.Value()
	loaded, err := OpenLadder(path, info, fakeCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := telemetry.WireLadderMmapBytes.Value() - mmap0; got != st.Size() {
		t.Fatalf("mmap gauge grew by %d, want file size %d", got, st.Size())
	}
	// A second load of the same file reuses the process-wide mapping:
	// the gauge must not count the file twice.
	if _, err := OpenLadder(path, info, fakeCodec{}); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.WireLadderMmapBytes.Value() - mmap0; got != st.Size() {
		t.Fatalf("second open grew the mmap gauge to +%d, want a single mapping of %d", got, st.Size())
	}

	if len(loaded) != len(snaps) {
		t.Fatalf("loaded %d snapshots, want %d", len(loaded), len(snaps))
	}
	for i, s := range loaded {
		got, want := s.(*fakeSnap), snaps[i].(*fakeSnap)
		if got.cycle != want.cycle || !bytes.Equal(got.tag, want.tag) {
			t.Fatalf("rung %d: cycle/tag = %d/%q, want %d/%q", i, got.cycle, got.tag, want.cycle, want.tag)
		}
		if got.mem.NumPages() != want.mem.NumPages() {
			t.Fatalf("rung %d: %d pages, want %d", i, got.mem.NumPages(), want.mem.NumPages())
		}
		for p := 0; p < want.mem.NumPages(); p++ {
			if !bytes.Equal(got.mem.Page(p), want.mem.Page(p)) {
				t.Fatalf("rung %d page %d differs", i, p)
			}
		}
		// The all-zero page must decode to the canonical zero page so
		// restores keep their identity-match fast path.
		if zp := got.mem.Page(2); &zp[0] != &gpu.ZeroPage()[0] {
			t.Fatalf("rung %d: zero page was not canonicalized", i)
		}
		// Rungs alias shared pages: one physical copy of p1.
		if i > 0 {
			prev := loaded[0].(*fakeSnap)
			if a, b := got.mem.Page(0), prev.mem.Page(0); &a[0] != &b[0] {
				t.Fatal("shared page is not aliased across rungs")
			}
		}
	}

	// VerifyLadder agrees with what was written.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pages, snapshots, err := VerifyLadder(data)
	if err != nil || pages != 4 || snapshots != 2 {
		t.Fatalf("VerifyLadder = %d pages, %d snapshots, %v", pages, snapshots, err)
	}
}

func TestLadderIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.ladder")
	info := LadderInfo{Chip: "Mini Test", Benchmark: "vectoradd", Interval: 777}
	if err := WriteLadder(path, info, fakeCodec{}, []gpu.Snapshot{snap(t, 1, "x", fill(1))}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []LadderInfo{
		{Chip: "Other Chip", Benchmark: "vectoradd", Interval: 777},
		{Chip: "Mini Test", Benchmark: "matrixMul", Interval: 777},
		{Chip: "Mini Test", Benchmark: "vectoradd", Interval: 0},
	} {
		if _, err := OpenLadder(path, want, fakeCodec{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("foreign ladder %+v: err = %v, want ErrCorrupt", want, err)
		}
	}
}

func TestLadderRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ladder")
	info := LadderInfo{Chip: "c", Benchmark: "b", Interval: 0}
	if err := WriteLadder(good, info, fakeCodec{}, []gpu.Snapshot{snap(t, 5, "x", fill(7))}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	// Ladders are written atomically, so a short tail is an error here,
	// not a healable torn append. Separate paths per case: mappings are
	// cached per path for the life of the process.
	torn := filepath.Join(dir, "torn.ladder")
	if err := os.WriteFile(torn, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLadder(torn, info, fakeCodec{}); !errors.Is(err, ErrTorn) {
		t.Fatalf("truncated ladder: err = %v, want ErrTorn", err)
	}
	if _, _, err := VerifyLadder(data[:len(data)-3]); !errors.Is(err, ErrTorn) {
		t.Fatalf("VerifyLadder truncated: err = %v, want ErrTorn", err)
	}

	// A store file is not a ladder.
	store := filepath.Join(dir, "not-a.ladder")
	if err := os.WriteFile(store, AppendHeader(nil, FileStore), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLadder(store, info, fakeCodec{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("store-as-ladder: err = %v, want ErrCorrupt", err)
	}

	// A flipped page byte fails the content hash in VerifyLadder and the
	// record CRC before that.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-200] ^= 0x40
	if _, _, err := VerifyLadder(flipped); err == nil {
		t.Fatal("flipped byte passed VerifyLadder")
	}

	// Missing the ladder file entirely is fs.ErrNotExist, which the
	// finject loader treats as a silent miss.
	if _, err := OpenLadder(filepath.Join(dir, "absent.ladder"), info, fakeCodec{}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent ladder: err = %v, want ErrNotExist", err)
	}
}
