package amdsim

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
// SizeBytes accounting fails here. The GTO case covers the
// greedy-wavefront pointer fields.
func TestSnapshotMetaPinned(t *testing.T) {
	cases := []struct {
		sched chips.SchedulerPolicy
		want  []pinnedMeta
	}{
		{chips.SchedRR, []pinnedMeta{
			{0, 118794, "9375fb8b4dc17c379c7eab0028e26d321fc77ccd30c07fbed7eddbf9ced57dff"},
			{500, 98314, "fa6d6cc2272400b78664c00ab3418391047fe0b37ed4596f355dce9846b69451"},
			{1000, 98314, "1e601184332ca337ac3f5762f8848502e9c67f185d046eaaeff1fecdecec5ad5"},
			{1500, 102410, "e6db8fb7acba53fe12891683c661cdd168576576196e3a3b6023be50c39837e2"},
			{2000, 98314, "8db7ac9a6b9266356393f10097b7663b2bfa7c194cd8b05df99486f5aeede814"},
			{2500, 102410, "cbadd077c2007a956615af2f41dd61f3b93eaae48ece798cb6d86dd20a40a994"},
			{3000, 98314, "4d1c5a95d230487a83f2f111c6e81e5a2574c02045de1d7c9690e583debcf7cd"},
			{3534, 102410, "80aa51ca8905d4df4adbfe394e403ff699b277e4cdf5139384acf35b33ee0216"},
			{3938, 102410, "b855e94aaddd9cc18f56300bc6ad561b212f8591ec788705727bf2338efd0392"},
		}},
		{chips.SchedGTO, []pinnedMeta{
			{0, 118794, "9375fb8b4dc17c379c7eab0028e26d321fc77ccd30c07fbed7eddbf9ced57dff"},
			{500, 98314, "30969405faa19c620f192b77abed7e967f243436fc50ca15669d7029a1905182"},
			{1000, 102410, "d36bde623a58bd02cdb711584d063f8b009b7f6e9dfd26db26313ffb147293e5"},
			{1500, 102410, "2e2689f7510a361bc4447ef16a0cc046c00668a1e09c0c1153fe03c3c4554ecb"},
			{2000, 102410, "701739e116ac9e60983169a25f9614e90a9875af9415bc1b8bf2607235f4eaac"},
			{2500, 102410, "1884192f5a8baa3d18712d9e990076439aaa50f9180a0c602178963a7b528bdc"},
			{3000, 102410, "2af5e3d23acb3806080ad6c8e2956deca6184d0add89fc024bf2346ad1d3146f"},
			{3394, 102410, "b52ef4c600e69911e65cf0f5d01521c8a382f215ea858199fb71f97f911a9f0a"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.sched.String(), func(t *testing.T) {
			chip := chips.MiniAMD()
			chip.Scheduler = tc.sched
			got := ladderMetas(t, chip, 500)
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
