package campaign

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/finject"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Store is a campaign-result cache keyed by cell identity. Implementations
// must be safe for concurrent use. Results are shared by pointer: callers
// must treat results obtained from a store as immutable.
type Store interface {
	// Get returns the stored result for key, if any.
	Get(key CellKey) (*finject.Result, bool, error)
	// Put records the result for key, replacing any previous value.
	Put(key CellKey, res *finject.Result) error
	// Len reports the number of cells currently stored.
	Len() int
}

// MemoryStore is an in-memory LRU Store.
type MemoryStore struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	idx map[CellKey]*list.Element
}

type memEntry struct {
	key CellKey
	res *finject.Result
}

// NewMemoryStore builds an LRU store holding at most capacity cells;
// capacity <= 0 means unbounded.
func NewMemoryStore(capacity int) *MemoryStore {
	return &MemoryStore{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[CellKey]*list.Element),
	}
}

// Get implements Store, refreshing the entry's recency.
func (m *MemoryStore) Get(key CellKey) (*finject.Result, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.idx[key]
	if !ok {
		return nil, false, nil
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memEntry).res, true, nil
}

// Put implements Store, evicting the least recently used cell when over
// capacity.
func (m *MemoryStore) Put(key CellKey, res *finject.Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.idx[key]; ok {
		el.Value.(*memEntry).res = res
		m.ll.MoveToFront(el)
		return nil
	}
	m.idx[key] = m.ll.PushFront(&memEntry{key: key, res: res})
	if m.cap > 0 && m.ll.Len() > m.cap {
		last := m.ll.Back()
		m.ll.Remove(last)
		delete(m.idx, last.Value.(*memEntry).key)
	}
	return nil
}

// Len implements Store.
func (m *MemoryStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// DiskStore is the persistent Store: an append-only file of
// length-prefixed, CRC-protected wire frames, one per Put, with the
// whole file indexed in memory on open. Later frames for the same key
// shadow earlier ones, so overwrites are appends too — the file is only
// rewritten by Compact, which OpenStore invokes automatically once the
// dead frames pass CompactDeadThreshold.
type DiskStore struct {
	mu   sync.Mutex
	path string
	f    *os.File
	idx  map[CellKey]*finject.Result
	// records counts the frames physically in the file; records - len(idx)
	// are dead (shadowed by a later frame for the same key).
	records int
	// gaugeLive and gaugeDead are this store's contribution to the
	// fleet-wide fi_store_disk_records_live/_dead gauges.
	gaugeLive, gaugeDead int
}

// CompactDeadThreshold is the number of dead (shadowed) records past
// which OpenStore compacts the file before serving from it. Policy
// upgrades overwrite cells by appending, so a long-lived store otherwise
// grows without bound.
const CompactDeadThreshold = 64

// FormatBinary names the one store format, the wire format. It is the
// only value OpenStore accepts.
const FormatBinary = "binary"

// appendCellRecord frames one (key, result) pair onto buf.
func appendCellRecord(buf []byte, key CellKey, res *finject.Result) []byte {
	var w wire.Writer
	w.String(string(key))
	finject.EncodeResult(&w, res)
	return wire.AppendRecord(buf, wire.RecCell, w.Bytes())
}

// decodeCellRecord decodes a RecCell payload.
func decodeCellRecord(payload []byte) (CellKey, *finject.Result, error) {
	r := wire.NewReader(payload)
	key := CellKey(r.String())
	if err := r.Err(); err != nil {
		return "", nil, err
	}
	if key == "" {
		return "", nil, fmt.Errorf("%w: cell record with empty key", wire.ErrCorrupt)
	}
	res, err := finject.DecodeResult(r)
	if err != nil {
		return "", nil, err
	}
	return key, res, nil
}

// ScanStore walks the cell records of a store file's bytes in file
// order, handing fn each record's key and decoded result; a later record
// for a key shadows an earlier one. It returns the offset just past the
// last complete frame, so good < len(data) means a torn final append. A
// bad header, a frame failing its CRC or a cell record that does not
// decode is an error. It is the one decoder of the cell-record layout,
// shared by OpenStore and fistore's read-only inspection.
func ScanStore(data []byte, fn func(key CellKey, res *finject.Result) error) (good int, err error) {
	kind, _, err := wire.ParseHeader(data)
	if err != nil {
		return 0, err
	}
	if kind != wire.FileStore {
		return 0, fmt.Errorf("wire %s file, not a store", kind)
	}
	return wire.ScanRecords(data, func(rec wire.Record) error {
		if rec.Kind != wire.RecCell {
			return nil // forward-compatible additions: skip
		}
		key, res, err := decodeCellRecord(rec.Payload)
		if err != nil {
			return fmt.Errorf("record at offset %d: %w", rec.Off, err)
		}
		return fn(key, res)
	})
}

// OpenStore opens (creating if absent) the store at path and loads its
// index. format must be FormatBinary. Each Put is a single write of one
// complete frame, so a frame whose declared extent runs past the end of
// the file is a torn append and is truncated away, while a complete
// frame failing its CRC or decode is corruption and stays an error. A
// file without the wire magic — a JSON-lines store from before the wire
// format — is refused untouched with the one-time migration command.
func OpenStore(path, format string) (*DiskStore, error) {
	if format != FormatBinary {
		return nil, fmt.Errorf("campaign: unknown store format %q (the only store format is %q)", format, FormatBinary)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	d := &DiskStore{path: path, f: f, idx: make(map[CellKey]*finject.Result)}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: store %s: %w", path, err)
	}
	if len(data) == 0 {
		hdr := wire.AppendHeader(nil, wire.FileStore)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: store %s: %w", path, err)
		}
		telemetry.WireBytesWritten.Add(int64(len(hdr)))
	} else {
		if !wire.IsWireFile(data) {
			f.Close()
			return nil, fmt.Errorf("campaign: store %s is not a wire-format store; a JSON-lines store needs a one-time migration: fistore convert %s <new.store>", path, path)
		}
		good, err := ScanStore(data, func(key CellKey, res *finject.Result) error {
			d.idx[key] = res
			d.records++
			return nil
		})
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: store %s: %w", path, err)
		}
		if good < len(data) {
			if err := f.Truncate(int64(good)); err != nil {
				f.Close()
				return nil, fmt.Errorf("campaign: store %s: truncate torn tail: %w", path, err)
			}
		}
		if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: store %s: %w", path, err)
		}
	}
	if d.records-len(d.idx) > CompactDeadThreshold {
		if err := d.Compact(); err != nil {
			f.Close()
			return nil, err
		}
	}
	d.mu.Lock()
	d.syncGaugesLocked(len(d.idx), d.records-len(d.idx))
	d.mu.Unlock()
	return d, nil
}

// syncGaugesLocked publishes the store's live/dead record counts as
// deltas against its previous sync, so several open stores aggregate
// additively. Callers hold d.mu.
func (d *DiskStore) syncGaugesLocked(live, dead int) {
	telemetry.StoreRecordsLive.Add(int64(live - d.gaugeLive))
	telemetry.StoreRecordsDead.Add(int64(dead - d.gaugeDead))
	d.gaugeLive, d.gaugeDead = live, dead
}

// Compact rewrites the file down to one frame per live cell, in sorted
// key order so equal stores are byte-identical on disk. The frames go to
// a temporary sibling file, which is fsynced and atomically renamed over
// the store, so a crash at any point leaves either the old complete file
// or the new complete file. The in-memory index and the results it
// shares by pointer are untouched.
func (d *DiskStore) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer telemetry.StartSpan(context.Background(), "store_compact")()
	buf := wire.AppendHeader(nil, wire.FileStore)
	for _, k := range sortedKeys(d.idx) {
		buf = appendCellRecord(buf, k, d.idx[k])
	}
	tmpPath := d.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	_, err = tmp.Write(buf)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, d.path)
	}
	if err != nil {
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	// Reopen the renamed file for appends; the old handle now points at
	// an unlinked inode.
	f, err := os.OpenFile(d.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: compact store: reopen: %w", err)
	}
	d.f.Close()
	d.f = f
	d.records = len(d.idx)
	telemetry.WireBytesWritten.Add(int64(len(buf)))
	telemetry.StoreCompactions.Inc()
	d.syncGaugesLocked(len(d.idx), 0)
	return nil
}

// sortedKeys returns the index's keys in ascending order.
func sortedKeys(idx map[CellKey]*finject.Result) []CellKey {
	keys := make([]CellKey, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Records reports the physical frame count of the backing file;
// Records() - Len() of them are dead.
func (d *DiskStore) Records() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.records
}

// Get implements Store from the in-memory index.
func (d *DiskStore) Get(key CellKey) (*finject.Result, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	res, ok := d.idx[key]
	return res, ok, nil
}

// Put implements Store, appending one frame with a single write so the
// record is either wholly present or wholly absent after any crash.
func (d *DiskStore) Put(key CellKey, res *finject.Result) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := appendCellRecord(nil, key, res)
	if _, err := d.f.Write(rec); err != nil {
		return fmt.Errorf("campaign: store append: %w", err)
	}
	d.idx[key] = res
	d.records++
	telemetry.WireBytesWritten.Add(int64(len(rec)))
	telemetry.StorePuts.Inc()
	d.syncGaugesLocked(len(d.idx), d.records-len(d.idx))
	return nil
}

// Len implements Store.
func (d *DiskStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.idx)
}

// Path returns the backing file's path.
func (d *DiskStore) Path() string { return d.path }

// Close closes the backing file and withdraws the store's contribution
// from the fleet record gauges. The store must not be used afterwards.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncGaugesLocked(0, 0)
	return d.f.Close()
}
