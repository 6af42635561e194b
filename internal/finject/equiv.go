package finject

import (
	"encoding/json"
	"fmt"
	"reflect"
)

// CheckpointEquivalence is the differential proof harness behind the
// checkpointed fast-forward and read-liveness pruning engine: it
// executes the campaign twice — once on the reference engine
// (checkpointing off: every injection replays from power-on state and
// none is pruned) and once with the campaign's own checkpoint
// configuration, pruning included — with per-injection detail
// recording forced on, and
// fails unless the two runs are bit-identical: same outcome counts, same
// realized sample size, same golden statistics and occupancy, and the
// same per-injection record stream (fault site, outcome and SDC
// severity of every single injection, in order).
//
// It returns the checkpointed run's result so callers can chain further
// assertions (figure assembly, report JSON). Future engine changes keep
// the same proof by running their scenario matrix through this helper.
func CheckpointEquivalence(c Campaign) (*Result, error) {
	c.Detail = true

	full := c
	full.Policy.Checkpoint = Checkpoint{Off: true}
	fullRes, err := Run(full)
	if err != nil {
		return nil, fmt.Errorf("finject: full-replay run: %w", err)
	}

	ckpt := c
	ckpt.Policy.Checkpoint.Off = false
	ckptRes, err := Run(ckpt)
	if err != nil {
		return nil, fmt.Errorf("finject: checkpointed run: %w", err)
	}

	if err := equalResults(fullRes, ckptRes); err != nil {
		return nil, fmt.Errorf("finject: checkpointed run diverges from full replay for %s/%s/%s seed=%d: %w",
			c.Chip.Name, c.Benchmark.Name, c.Structure, c.Seed, err)
	}
	return ckptRes, nil
}

// equalResults compares two campaign results bit for bit, reporting the
// first divergence precisely enough to debug it.
func equalResults(full, ckpt *Result) error {
	if full.Injections != ckpt.Injections {
		return fmt.Errorf("realized injections differ: full=%d checkpointed=%d", full.Injections, ckpt.Injections)
	}
	if full.Outcomes != ckpt.Outcomes {
		return fmt.Errorf("outcome counts differ: full=%v checkpointed=%v", full.Outcomes, ckpt.Outcomes)
	}
	if full.GoldenStats != ckpt.GoldenStats {
		return fmt.Errorf("golden stats differ: full=%+v checkpointed=%+v", full.GoldenStats, ckpt.GoldenStats)
	}
	if full.Occupancy != ckpt.Occupancy {
		return fmt.Errorf("occupancy differs: full=%v checkpointed=%v", full.Occupancy, ckpt.Occupancy)
	}
	for i := range full.Records {
		if full.Records[i] != ckpt.Records[i] {
			return fmt.Errorf("injection #%d differs: full=%+v checkpointed=%+v", i, full.Records[i], ckpt.Records[i])
		}
	}
	// Belt and braces: the serialized forms must match byte for byte,
	// catching any future Result field the comparisons above miss.
	fb, err := json.Marshal(full)
	if err != nil {
		return err
	}
	cb, err := json.Marshal(ckpt)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(fb, cb) {
		return fmt.Errorf("serialized results differ:\nfull:         %s\ncheckpointed: %s", fb, cb)
	}
	return nil
}
