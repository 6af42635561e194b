package report

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/gpu"
)

// sampleAVF is a one-benchmark, two-chip register-file result.
func sampleAVF() *experiment.Result {
	return &experiment.Result{
		Spec:       experiment.Spec{Name: "fig-x", Estimator: experiment.EstimatorBoth, Injections: 100},
		Chips:      []string{"Chip A", "Chip B"},
		Benchmarks: []string{"bm1"},
		Tables: []*experiment.Table{{
			Structure: gpu.RegisterFile,
			Cells: [][]*experiment.Cell{{
				{Chip: "Chip A", Benchmark: "bm1", AVFFI: 0.123, AVFFILo: 0.10, AVFFIHi: 0.15, AVFACE: 0.2, Occupancy: 0.5},
				{Chip: "Chip B", Benchmark: "bm1", AVFFI: 0.01, AVFFILo: 0.005, AVFFIHi: 0.02, AVFACE: 0.015, Occupancy: 0.1},
			}},
			Averages: []*experiment.Cell{
				{Chip: "Chip A", Benchmark: "average", AVFFI: 0.123, AVFACE: 0.2, Occupancy: 0.5},
				{Chip: "Chip B", Benchmark: "average", AVFFI: 0.01, AVFACE: 0.015, Occupancy: 0.1},
			},
		}},
	}
}

// sampleEPF is a one-chip, two-benchmark EPF result, one row of which
// has no manifested faults (infinite EPF).
func sampleEPF() *experiment.Result {
	return &experiment.Result{
		Spec:       experiment.Spec{Name: "fig-3", Estimator: experiment.EstimatorFI},
		Chips:      []string{"Chip A"},
		Benchmarks: []string{"bm1", "bm2"},
		EPF: &experiment.EPFTable{Rows: [][]*experiment.EPFRow{
			{{Chip: "Chip A", Benchmark: "bm1", EPF: 1.5e14, Seconds: 1e-4, RegAVF: 0.02, LocalAVF: 0.01}},
			{{Chip: "Chip A", Benchmark: "bm2", EPF: 0, Seconds: 2e-4}},
		}},
	}
}

func TestWriteExperimentAVFTable(t *testing.T) {
	var sb strings.Builder
	if err := WriteExperiment(&sb, sampleAVF()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig-x — register-file AVF (both, 100 injections/campaign)", "bm1", "Chip A", "Chip B", "12.30%", "average", "occupancy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 7 {
		t.Fatalf("unexpected line count:\n%s", out)
	}
}

func TestWriteExperimentEPF(t *testing.T) {
	var sb strings.Builder
	if err := WriteExperiment(&sb, sampleEPF()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig-3 — Executions per Failure", "1.500e+14", "bm2", "inf"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteExperimentJSON(t *testing.T) {
	var sb strings.Builder
	if err := WriteExperimentJSON(&sb, sampleAVF()); err != nil {
		t.Fatal(err)
	}
	var doc experiment.Result
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if doc.Spec.Name != "fig-x" || len(doc.Tables) != 1 || doc.Tables[0].Structure != gpu.RegisterFile {
		t.Fatalf("header: %+v", doc)
	}
	tbl := doc.Tables[0]
	if len(tbl.Cells) != 1 || len(tbl.Cells[0]) != 2 || len(tbl.Averages) != 2 {
		t.Fatalf("cells/averages: %d/%d", len(tbl.Cells[0]), len(tbl.Averages))
	}
	if tbl.Cells[0][0].AVFFI != 0.123 {
		t.Fatalf("cell payload: %+v", tbl.Cells[0][0])
	}
}

func TestWriteExperimentJSONEPF(t *testing.T) {
	var sb strings.Builder
	if err := WriteExperimentJSON(&sb, sampleEPF()); err != nil {
		t.Fatal(err)
	}
	var doc experiment.Result
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.EPF == nil || len(doc.EPF.Rows) != 2 || doc.EPF.Rows[0][0].EPF != 1.5e14 {
		t.Fatalf("rows: %+v", doc.EPF)
	}
}
