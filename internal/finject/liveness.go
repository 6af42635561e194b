package finject

import (
	"math"
	"slices"

	"repro/internal/gpu"
)

// Read-liveness pruning: a single-entry flip leaves the faulty run
// identical to the golden run until that entry is first read, because
// every other input of the execution is unchanged. An entry the golden
// run never reads at or after the fault cycle is therefore never read by
// the faulty run either, which then stays identical to the golden run to
// the end: the outcome is Masked without simulating anything. Writes are
// deliberately ignored, so the rule needs no notion of whether a store
// overwrites the whole entry or whether the entry was ever written.

// liveness records, per unit, the last cycle at which the golden run
// read each register-file entry and each local-memory byte. It is the
// gpu.Tracer runGolden installs; each unit's slice grows only to the
// highest entry read, so sparsely used structures stay small.
type liveness struct {
	// reg and local hold, per unit and entry, the last read cycle plus
	// one (0 = never read). Reads arrive in non-decreasing cycle order,
	// so the last write of a slot is its last read.
	reg, local [][]uint32
}

// maxLivenessCycle is the longest golden run the uint32 encoding covers.
const maxLivenessCycle = math.MaxUint32 - 1

func newLiveness(units int) *liveness {
	return &liveness{reg: make([][]uint32, units), local: make([][]uint32, units)}
}

// markRead records a read of entries [entry, entry+n) at the cycle.
func markRead(s []uint32, entry, n int, cycle int64) []uint32 {
	if end := entry + n; end > len(s) {
		s = slices.Grow(s, end-len(s))[:end]
	}
	for i := entry; i < entry+n; i++ {
		s[i] = uint32(cycle + 1)
	}
	return s
}

func (l *liveness) RegAccess(unit, entry int, cycle int64, write bool) {
	if !write {
		l.reg[unit] = markRead(l.reg[unit], entry, 1, cycle)
	}
}

func (l *liveness) LocalAccess(unit, offset, size int, cycle int64, write bool) {
	if !write {
		l.local[unit] = markRead(l.local[unit], offset, size, cycle)
	}
}

func (l *liveness) RegAlloc(unit, base, count int, cycle int64)  {}
func (l *liveness) RegFree(unit, base, count int, cycle int64)   {}
func (l *liveness) LocalAlloc(unit, base, size int, cycle int64) {}
func (l *liveness) LocalFree(unit, base, size int, cycle int64)  {}

// readFrom reports whether the golden run read the fault's entry at or
// after the fault cycle — the only way the flip can reach the outcome.
func (l *liveness) readFrom(f gpu.Fault) bool {
	s := l.reg
	if f.Structure == gpu.LocalMemory {
		s = l.local
	}
	if f.Unit < 0 || f.Unit >= len(s) || f.Entry < 0 || f.Entry >= len(s[f.Unit]) {
		return false
	}
	return int64(s[f.Unit][f.Entry]) > f.Cycle
}

var _ gpu.Tracer = (*liveness)(nil)
