package finject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gpu"
)

// Checkpointed fast-forward: while the golden reference run executes,
// the engine captures snapshots of the complete device state every K
// cycles (the checkpoint ladder). Each injection then restores the
// greatest snapshot at or below its fault cycle and resumes from there
// instead of re-simulating the fault-free prefix from power-on state —
// at uniform (bit, cycle) sampling this roughly halves the simulated
// cycles per injection. The ladder hangs off the shared Golden, is
// immutable after construction, and is read concurrently by the whole
// worker pool. Checkpointing never changes results: fault #i is still
// derived from (Seed, i) alone and the resumed execution is
// bit-identical to a full replay (see CheckpointEquivalence and the
// differential suite in equiv_test.go).

// Checkpoint configures checkpointed fast-forward execution. The zero
// value is the default: checkpointing on, interval auto-sized from the
// golden run's cycle count and the memory budget.
type Checkpoint struct {
	// Off selects the reference engine: every injection replays from
	// cycle 0, with no checkpoint restore and no read-liveness pruning.
	Off bool `json:"off,omitempty"`
	// Interval overrides the auto-sized snapshot spacing in device
	// cycles (0 = auto).
	Interval int64 `json:"interval,omitempty"`
}

// ParseCheckpoint parses the -checkpoint CLI flag value: "auto" (the
// default ladder), "off", or a positive cycle interval.
func ParseCheckpoint(s string) (Checkpoint, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto", "on":
		return Checkpoint{}, nil
	case "off":
		return Checkpoint{Off: true}, nil
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n <= 0 {
		return Checkpoint{}, fmt.Errorf("finject: bad checkpoint %q (want auto, off or a positive cycle interval)", s)
	}
	return Checkpoint{Interval: n}, nil
}

// String renders the configuration in flag syntax.
func (c Checkpoint) String() string {
	switch {
	case c.Off:
		return "off"
	case c.Interval > 0:
		return strconv.FormatInt(c.Interval, 10)
	default:
		return "auto"
	}
}

// CheckpointBudgetBytes bounds the memory one checkpoint ladder may
// hold; the auto-sizing divides it by the measured snapshot size to cap
// the ladder length.
const CheckpointBudgetBytes = 256 << 20

// maxLadderSnapshots caps a ladder regardless of budget; beyond ~64
// rungs the residual prefix per injection is already small compared to
// the post-fault suffix.
const maxLadderSnapshots = 64

// minCheckpointInterval is the auto-sizer's initial spacing; short
// golden runs are cheap to replay in full, so they get no ladder at all.
const minCheckpointInterval = 2048

// ladderBuilder accumulates a checkpoint ladder during a golden run,
// driving the device's checkpoint hook. In auto mode it starts at
// minCheckpointInterval and, whenever the rung count hits the cap
// (derived from the measured snapshot size and the memory budget), it
// drops every other rung and doubles the interval — an online scheme
// that needs no advance knowledge of the golden cycle count and ends
// within 2x of the ideal spacing.
type ladderBuilder struct {
	interval int64
	fixed    bool
	cap      int
	snaps    []gpu.Snapshot
}

func newLadderBuilder(cfg Checkpoint) *ladderBuilder {
	if cfg.Interval > 0 {
		return &ladderBuilder{interval: cfg.Interval, fixed: true}
	}
	return &ladderBuilder{interval: minCheckpointInterval}
}

// hook is the gpu.Device checkpoint callback: it stores the snapshot
// and returns the next capture cycle (or stops at the cap).
func (lb *ladderBuilder) hook(s gpu.Snapshot) int64 {
	lb.snaps = append(lb.snaps, s)
	if lb.cap == 0 {
		// First snapshot: size the ladder against the memory budget.
		// The budget applies to fixed intervals too — a short explicit
		// interval on a big chip must not hold gigabytes of snapshots.
		lb.cap = maxLadderSnapshots
		if sz := s.SizeBytes(); sz > 0 {
			if byBudget := int(CheckpointBudgetBytes / sz); byBudget < lb.cap {
				lb.cap = byBudget
			}
		}
		if lb.cap < 2 {
			lb.cap = 2
		}
	}
	if len(lb.snaps) >= lb.cap {
		if lb.fixed {
			return -1 // honor the interval, stop extending the ladder
		}
		kept := lb.snaps[:0]
		for i, snap := range lb.snaps {
			if i%2 == 0 {
				kept = append(kept, snap)
			}
		}
		lb.snaps = kept
		lb.interval *= 2
	}
	return s.Cycle() + lb.interval
}

// arm installs the builder's hook on the device, with the first capture
// one interval in.
func (lb *ladderBuilder) arm(d gpu.Device) {
	d.SetCheckpointHook(lb.interval, lb.hook)
}

// latestBelow returns the greatest snapshot with Cycle <= cycle, or nil
// when the ladder has no such rung (the injection then replays in full).
func latestBelow(ladder []gpu.Snapshot, cycle int64) gpu.Snapshot {
	i := sort.Search(len(ladder), func(i int) bool { return ladder[i].Cycle() > cycle })
	if i == 0 {
		return nil
	}
	return ladder[i-1]
}
