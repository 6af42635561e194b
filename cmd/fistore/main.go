// Command fistore inspects and verifies the wire-format files of the
// campaign fleet — result stores and checkpoint-ladder files — and
// migrates JSON-lines result stores written by older versions.
//
//	fistore inspect cells.store              header, record counts, dedupe ratio
//	fistore verify  cells.store              full structural + checksum check
//	fistore convert cells.jsonl cells.store  one-time JSON-lines migration
//
// inspect and verify are strictly read-only (they never compact or
// truncate, unlike opening a store for campaigning). convert reads a
// JSON-lines store, writes its live cells to a fresh wire-format store
// and then proves the copy by re-opening it and comparing every cell.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/wire"
)

// errUsage marks argument errors already reported on stderr.
var errUsage = errors.New("usage error")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "fistore: %v\n", err)
		}
		os.Exit(1)
	}
}

func usage(stderr io.Writer) error {
	fmt.Fprintln(stderr, "usage: fistore inspect <file> | verify <file> | convert <src.jsonl> <dst.store>")
	return errUsage
}

// run is main's testable core.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "inspect":
		if len(args) != 2 {
			return usage(stderr)
		}
		return inspect(args[1], stdout)
	case "verify":
		if len(args) != 2 {
			return usage(stderr)
		}
		return verify(args[1], stdout)
	case "convert":
		if len(args) != 3 {
			return usage(stderr)
		}
		return convert(args[1], args[2], stdout)
	default:
		return usage(stderr)
	}
}

// readWire reads a wire-format file and parses its header.
func readWire(path string) ([]byte, wire.FileKind, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if !wire.IsWireFile(data) {
		return nil, 0, fmt.Errorf("%s is not a wire-format file (a JSON-lines store needs a one-time migration: fistore convert %s <new.store>)", path, path)
	}
	kind, _, err := wire.ParseHeader(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return data, kind, nil
}

// scanStore counts the cell records of a store file's bytes, and the
// distinct keys among them.
func scanStore(path string, data []byte) (records, live, good int, err error) {
	keys := map[campaign.CellKey]bool{}
	good, err = campaign.ScanStore(data, func(key campaign.CellKey, _ *finject.Result) error {
		keys[key] = true
		records++
		return nil
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return records, len(keys), good, nil
}

// inspect prints a read-only summary of any fleet file.
func inspect(path string, w io.Writer) error {
	data, kind, err := readWire(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: wire v%d %s file, %d bytes\n", path, data[4], kind, len(data))
	switch kind {
	case wire.FileStore:
		records, live, good, err := scanStore(path, data)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  records   %d (%d live, %d dead)\n", records, live, records-live)
		if good < len(data) {
			fmt.Fprintf(w, "  torn tail (%d trailing bytes; healed on next open)\n", len(data)-good)
		}
	case wire.FileLadder:
		return inspectLadder(path, data, w)
	}
	return nil
}

// inspectLadder summarizes a ladder file: identity, rungs, and how much
// the content-addressed page pool deduplicated.
func inspectLadder(path string, data []byte, w io.Writer) error {
	var (
		pages, snapshots int
		refs             int
		metaBytes        int
	)
	_, err := wire.ScanRecords(data, func(rec wire.Record) error {
		switch rec.Kind {
		case wire.RecLadderInfo:
			r := wire.NewReader(rec.Payload)
			chip, bench, interval, declared := r.String(), r.String(), r.I64(), r.U32()
			if err := r.Err(); err != nil {
				return err
			}
			iv := "auto"
			if interval > 0 {
				iv = fmt.Sprintf("%d cycles", interval)
			}
			fmt.Fprintf(w, "  ladder    %s / %s, interval %s, %d rungs\n", chip, bench, iv, declared)
		case wire.RecPage:
			pages++
		case wire.RecSnapshot:
			r := wire.NewReader(rec.Payload)
			r.I64()
			r.U32()
			r.U32()
			refs += len(r.U32s())
			metaBytes += len(r.Blob())
			if err := r.Err(); err != nil {
				return err
			}
			snapshots++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "  snapshots %d (%d bytes device meta)\n", snapshots, metaBytes)
	dedup := 0.0
	if refs > 0 {
		dedup = 1 - float64(pages)/float64(refs)
	}
	fmt.Fprintf(w, "  pages     %d stored for %d references (%.1f%% deduplicated)\n", pages, refs, 100*dedup)
	return nil
}

// verify fully checks a file: framing, checksums, and record decodes.
func verify(path string, w io.Writer) error {
	data, kind, err := readWire(path)
	if err != nil {
		return err
	}
	switch kind {
	case wire.FileStore:
		records, _, good, err := scanStore(path, data)
		if err != nil {
			return err
		}
		if good < len(data) {
			fmt.Fprintf(w, "%s: ok, %d records (torn tail of %d bytes; healed on next open)\n", path, records, len(data)-good)
			return nil
		}
		fmt.Fprintf(w, "%s: ok, %d records\n", path, records)
		return nil
	case wire.FileLadder:
		pages, snapshots, err := wire.VerifyLadder(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(w, "%s: ok, %d snapshots over %d pages\n", path, snapshots, pages)
		return nil
	}
	return fmt.Errorf("%s: unknown wire file kind", path)
}

// jsonRow is one line of the JSON-lines store format that older
// versions wrote; convert is its only reader.
type jsonRow struct {
	Key    campaign.CellKey `json:"key"`
	Result *finject.Result  `json:"result"`
}

// readJSONLines indexes a JSON-lines store by the rules its writer
// guaranteed: each row is one write of record+newline, so blank lines
// are skipped, an unterminated final line is a torn append (skipped and
// reported through torn), a malformed terminated line is corruption, and
// a later row for a key shadows an earlier one.
func readJSONLines(path string) (idx map[campaign.CellKey]*finject.Result, rows, torn int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if head, _ := br.Peek(len(wire.Magic)); wire.IsWireFile(head) {
		return nil, 0, 0, fmt.Errorf("%s is already a wire-format store", path)
	}
	idx = map[campaign.CellKey]*finject.Result{}
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			return idx, rows, len(raw), nil
		}
		if err != nil {
			return nil, 0, 0, err
		}
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		var row jsonRow
		if err := json.Unmarshal(raw, &row); err != nil {
			return nil, 0, 0, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if row.Key == "" || row.Result == nil {
			return nil, 0, 0, fmt.Errorf("%s line %d: incomplete record", path, line)
		}
		idx[row.Key] = row.Result
		rows++
	}
}

// convert migrates the JSON-lines store at src into a fresh wire-format
// store at dst, then re-opens dst and proves every cell survived.
func convert(src, dst string, w io.Writer) error {
	if _, err := os.Stat(dst); err == nil {
		return fmt.Errorf("%s already exists (refusing to overwrite)", dst)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	idx, rows, torn, err := readJSONLines(src)
	if err != nil {
		return err
	}
	to, err := campaign.OpenStore(dst, campaign.FormatBinary)
	if err != nil {
		return err
	}
	keys := make([]campaign.CellKey, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if err := to.Put(k, idx[k]); err != nil {
			to.Close()
			return err
		}
	}
	if err := to.Close(); err != nil {
		return err
	}

	check, err := campaign.OpenStore(dst, campaign.FormatBinary)
	if err != nil {
		return fmt.Errorf("re-open converted store: %w", err)
	}
	defer check.Close()
	if check.Len() != len(idx) {
		return fmt.Errorf("converted store holds %d cells, source holds %d", check.Len(), len(idx))
	}
	for k, want := range idx {
		got, ok, err := check.Get(k)
		if err != nil || !ok {
			return fmt.Errorf("converted store is missing cell %s", k)
		}
		if !resultsEqual(want, got) {
			return fmt.Errorf("cell %s does not round-trip", k)
		}
	}
	if torn > 0 {
		fmt.Fprintf(w, "%s: skipped a torn final line of %d bytes\n", src, torn)
	}
	sb, _ := os.Stat(src)
	db, _ := os.Stat(dst)
	fmt.Fprintf(w, "%s (%d bytes, %d rows) -> %s (%d bytes): %d cells converted and verified\n",
		src, sb.Size(), rows, dst, db.Size(), len(idx))
	return nil
}

// resultsEqual compares two results field by field, treating nil and
// empty detail slices as equal (the wire format encodes both the same
// way).
func resultsEqual(a, b *finject.Result) bool {
	if a.Outcomes != b.Outcomes || a.Injections != b.Injections ||
		a.GoldenStats != b.GoldenStats || a.Occupancy != b.Occupancy ||
		len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	return true
}
