package nvsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// pinnedMeta is one ladder rung's encoded form: the capture cycle, the
// snapshot's SizeBytes and the SHA-256 of its MarshalSnapshot meta blob.
type pinnedMeta struct {
	cycle int64
	size  int64
	sha   string
}

// ladderMetas runs the reduction benchmark on chip with a checkpoint
// hook every stride cycles and returns every rung plus the final
// between-launch snapshot, each marshalled.
func ladderMetas(t *testing.T, chip *chips.Chip, stride int64) []pinnedMeta {
	t.Helper()
	bench, err := workloads.ByName("reduction")
	if err != nil {
		t.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(chip)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []gpu.Snapshot
	d.SetCheckpointHook(0, func(s gpu.Snapshot) int64 {
		snaps = append(snaps, s)
		return s.Cycle() + stride
	})
	if err := hp.Run(d); err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, d.Snapshot())
	out := make([]pinnedMeta, len(snaps))
	for i, s := range snaps {
		_, meta, err := d.MarshalSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(meta)
		out[i] = pinnedMeta{cycle: s.Cycle(), size: s.SizeBytes(), sha: hex.EncodeToString(sum[:])}
	}
	return out
}

// TestSnapshotMetaPinned pins the snapshot meta encoding byte for byte.
// Ladder files written by earlier builds must keep opening without a
// wire.Version bump, so any change to the layout, field order or
// SizeBytes accounting fails here. The GTO case covers the greedy-warp
// pointer fields.
func TestSnapshotMetaPinned(t *testing.T) {
	cases := []struct {
		sched chips.SchedulerPolicy
		want  []pinnedMeta
	}{
		{chips.SchedRR, []pinnedMeta{
			{0, 102408, "10818fc35dfa5fc4716f1d2a5d3e5e64a819de5e969943aee7415fe13d455538"},
			{1500, 81928, "6463d04638c0b82cc60bb2e97a45f5ba3adb845f7a0b86191984b9972886758b"},
			{3000, 86024, "4a49a55a4512e9a84e9aad8fc3fb4a32bd8fce1c90a8f5a4b45b511c87f829cd"},
			{4500, 81928, "c54c770a5da831e1a7eb8abf3f0ca9caf55d6bb4525ee08d21ddee3ee02191f2"},
			{6000, 86024, "befa01b3d377da4d1e5c4283d1f8ea5a85ae24de0c54d2f37755bd3eb64b34ce"},
			{7500, 81928, "9abbbf3517b2f2f5d172e04ae628027e0e39ca240aca8e54307865a1b1e82bd6"},
			{9000, 86024, "53d4dd14f932053aaecd4fe2f85e64b4c2426de1453f46e7971f6be018dc5e50"},
			{10500, 81928, "9fba8ccd3b9ded5f0f8ce9290155ca79a13123970aef2d7194179f8bbaec747b"},
			{11734, 86024, "14ab528f3105e2c593d6a565d5b97fdd203b9c5e2ebcc394cf4eabe767ebd686"},
		}},
		{chips.SchedGTO, []pinnedMeta{
			{0, 102408, "10818fc35dfa5fc4716f1d2a5d3e5e64a819de5e969943aee7415fe13d455538"},
			{1500, 86024, "ff8b3c39464d9b9a50fdf051a90a9100576c199bfd9a2a1a5cca1e46fc6d5289"},
			{3000, 86024, "98fc923c7b2d49369f9c7adf88ead60ece23c175b0cf649f9370c42b41e76bc4"},
			{4500, 86024, "c8e5910eb95dbf14fb359fb09c8861e9d05d3be73ae6fa15f67069e192c10e20"},
			{6000, 86024, "40a430715b5b4a2f53a0e53c562a35cea8aee36851c40a8b6814dea6ec6f3e3f"},
			{7500, 86024, "0804b65dd2f7f0c87b84e222fb6a0b9ec79e1b7383faffa4f839ab0eaa621955"},
			{9000, 86024, "612ee4cddb6d3dc3b60d57c22f59cc1b01ba9e04cefb13f60a32bc9d4dac0292"},
			{10500, 86024, "7efc3691470e9b976892e45e0101c4a3a02cbdafb63628d562893e290b75cb76"},
			{11788, 86024, "65ce98d9435f006b3fad782225ccc3281a232c3b66370635b0de96c4d161d7d2"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.sched.String(), func(t *testing.T) {
			chip := chips.MiniNVIDIA()
			chip.Scheduler = tc.sched
			got := ladderMetas(t, chip, 1500)
			if len(got) != len(tc.want) {
				for _, g := range got {
					t.Logf("{%d, %d, %q},", g.cycle, g.size, g.sha)
				}
				t.Fatalf("%d rungs, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("rung %d: got {%d, %d, %s}, want {%d, %d, %s}", i,
						got[i].cycle, got[i].size, got[i].sha, tc.want[i].cycle, tc.want[i].size, tc.want[i].sha)
				}
			}
		})
	}
}
