package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/wire"
)

// testKey mints a syntactically plausible cell key.
func testKey(i byte) campaign.CellKey {
	return campaign.CellKey(strings.Repeat(string([]byte{'a' + i%16}), 64))
}

// testResult builds a distinguishable synthetic result; odd indices get
// per-injection detail records so the detail path round-trips too.
func testResult(i int) *finject.Result {
	res := &finject.Result{
		Outcomes:   [gpu.NumOutcomes]int{50 + i, 10, 5, 2},
		Injections: 67 + i,
		GoldenStats: gpu.RunStats{
			Cycles: int64(10000 + i), Instructions: 5000, LaneInstructions: 120000, Launches: 2,
			RegOcc:   gpu.OccStats{AllocUnitCycles: 0.25 * float64(i+1)},
			LocalOcc: gpu.OccStats{AllocUnitCycles: 0.125},
		},
		Occupancy: 0.75,
	}
	if i%2 == 1 {
		res.Records = []finject.Record{
			{Fault: gpu.Fault{Structure: gpu.RegisterFile, Unit: i, Entry: 7, Bit: 3, Cycle: 42}, Outcome: gpu.OutcomeSDC, CorruptBytes: 8},
			{Fault: gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 1, Bit: 5, Width: 2, Cycle: 99}, Outcome: gpu.OutcomeMasked},
		}
	}
	return res
}

// seedStore populates a fresh store file.
func seedStore(t *testing.T, path string, n int) {
	t.Helper()
	st, err := campaign.OpenStore(path, campaign.FormatBinary)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := st.Put(testKey(byte(i)), testResult(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// legacyFixture is a JSON-lines store written by the last version that
// wrote them: figures -spec examples/spec_sweep/protection_whatif.json
// -n 40 -store legacy.jsonl.
const legacyFixture = "testdata/legacy.jsonl"

// convertAndCheck converts src and proves, independently of convert's
// own verification, that every cell of src round-trips into dst.
func convertAndCheck(t *testing.T, src, dst string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"convert", src, dst}, &out, &out); err != nil {
		t.Fatalf("convert: %v\n%s", err, out.String())
	}
	want, _, _, err := readJSONLines(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := campaign.OpenStore(dst, campaign.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != len(want) {
		t.Fatalf("converted store holds %d cells, source %d", st.Len(), len(want))
	}
	for k, res := range want {
		got, ok, _ := st.Get(k)
		if !ok || !resultsEqual(res, got) {
			t.Fatalf("cell %s did not survive the conversion", k)
		}
	}
	return out.String()
}

func TestConvertLegacyFixture(t *testing.T) {
	dir := t.TempDir()
	out := convertAndCheck(t, legacyFixture, filepath.Join(dir, "cells.store"))
	if !strings.Contains(out, "8 rows") || !strings.Contains(out, "8 cells converted and verified") || strings.Contains(out, "torn") {
		t.Fatalf("convert output = %q", out)
	}

	// A copy killed mid-append ends in an unterminated line: convert
	// skips and reports it, and keeps every complete row.
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	torn := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(torn, data[:last+(len(data)-last)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	out = convertAndCheck(t, torn, filepath.Join(dir, "torn.store"))
	if !strings.Contains(out, "skipped a torn final line") || !strings.Contains(out, "7 cells converted and verified") {
		t.Fatalf("torn convert output = %q", out)
	}

	// Later rows shadow earlier ones; blank lines are skipped; a
	// malformed complete line is corruption.
	var first jsonRow
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &first); err != nil {
		t.Fatal(err)
	}
	first.Result.Injections++
	later, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	shadow := filepath.Join(dir, "shadow.jsonl")
	if err := os.WriteFile(shadow, append(append(append([]byte(nil), data...), "\n"...), append(later, '\n')...), 0o644); err != nil {
		t.Fatal(err)
	}
	shadowStore := filepath.Join(dir, "shadow.store")
	out = convertAndCheck(t, shadow, shadowStore)
	if !strings.Contains(out, "9 rows") || !strings.Contains(out, "8 cells converted") {
		t.Fatalf("shadow convert output = %q", out)
	}
	st, err := campaign.OpenStore(shadowStore, campaign.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, _ := st.Get(first.Key)
	st.Close()
	if !ok || got.Injections != first.Result.Injections {
		t.Fatalf("later row did not shadow the earlier one: ok=%v got %+v", ok, got)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, append([]byte("{not json\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"convert", bad, filepath.Join(dir, "bad.store")}, &buf, &buf); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("malformed row: err = %v", err)
	}
}

func TestConvertRefusesOverwrite(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "cells.store")
	seedStore(t, dst, 1)
	var out bytes.Buffer
	if err := run([]string{"convert", legacyFixture, dst}, &out, &out); err == nil {
		t.Fatal("convert over an existing file should fail")
	}
	// A wire-format store is no conversion source.
	if err := run([]string{"convert", dst, filepath.Join(dir, "again.store")}, &out, &out); err == nil {
		t.Fatal("convert of a wire-format store should fail")
	}
}

func TestInspectAndVerifyStores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.store")
	seedStore(t, path, 3)
	var out bytes.Buffer
	if err := run([]string{"inspect", path}, &out, &out); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(out.String(), "wire v1 store file") || !strings.Contains(out.String(), "3 live") {
		t.Fatalf("inspect output = %q", out.String())
	}
	out.Reset()
	if err := run([]string{"verify", path}, &out, &out); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(out.String(), "ok, 3 records") {
		t.Fatalf("verify output = %q", out.String())
	}
	// A JSON-lines store is no longer read in place: both commands name
	// the migration instead.
	for _, cmd := range []string{"inspect", "verify"} {
		err := run([]string{cmd, legacyFixture}, &out, &out)
		if err == nil || !strings.Contains(err.Error(), "fistore convert "+legacyFixture) {
			t.Fatalf("%s of a JSON-lines store: err = %v", cmd, err)
		}
	}
	// A checkpoint-ladder file of earlier versions (file kind 2, led by
	// its ladder-info record, kind 4) fails both commands cleanly.
	ladder := filepath.Join(t.TempDir(), "old.ladder")
	old := wire.AppendRecord(wire.AppendHeader(nil, 2), 4, []byte("chip/bench"))
	if err := os.WriteFile(ladder, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"inspect", "verify"} {
		err := run([]string{cmd, ladder}, &out, &out)
		if err == nil || !strings.Contains(err.Error(), "checkpoint-ladder file") {
			t.Fatalf("%s of a ladder file: err = %v", cmd, err)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"inspect"},
		{"convert", "-to", "yaml", "a", "b"},
		{"convert", "a"},
	} {
		if err := run(args, &out, &out); err == nil {
			t.Fatalf("run(%v) should fail", args)
		}
	}
}
