package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/service"
)

func TestRunTinyFigure(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-fig", "1", "-chips", "Mini NVIDIA", "-bench", "vectoradd", "-n", "20", "-seed", "5"}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig1-register-file-avf — register-file AVF") || !strings.Contains(out.String(), "vectoradd") {
		t.Fatalf("figure output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), `msg="campaigns done" runs=1`) {
		t.Fatalf("campaign summary missing:\n%s", errOut.String())
	}
}

func TestRunTinyFigureJSON(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-fig", "2", "-chips", "Mini AMD", "-bench", "reduction", "-n", "20", "-json"}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// One experiment document; the wall-time note goes to the log.
	var doc struct {
		Tables []struct {
			Structure string `json:"structure"`
		} `json:"tables"`
	}
	if err := json.NewDecoder(strings.NewReader(out.String())).Decode(&doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(doc.Tables) != 1 || doc.Tables[0].Structure != "local-memory" {
		t.Fatalf("figure document: %+v", doc)
	}
}

// TestRunFigureMatchesSpec: -fig N is the canned spec of figure N, so it
// prints exactly the bytes of -spec on that spec file.
func TestRunFigureMatchesSpec(t *testing.T) {
	for fig := 1; fig <= 3; fig++ {
		spec, err := experiment.Figure(fig)
		if err != nil {
			t.Fatal(err)
		}
		spec.Chips = []string{"Mini NVIDIA", "Mini AMD"}
		spec.Benchmarks = []string{"reduction", "transpose"}
		spec.Injections = 20
		spec.Seed = 6
		body, err := spec.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		path := writeMiniSpec(t, string(body))

		var fromFig, fromSpec, errOut strings.Builder
		figArgs := []string{"-fig", fmt.Sprint(fig), "-chips", "Mini NVIDIA, Mini AMD", "-bench", "reduction,transpose",
			"-n", "20", "-seed", "6", "-json"}
		if err := run(context.Background(), figArgs, &fromFig, &errOut); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), []string{"-spec", path, "-json"}, &fromSpec, &errOut); err != nil {
			t.Fatal(err)
		}
		if fromFig.String() == "" || fromFig.String() != fromSpec.String() {
			t.Fatalf("fig %d: -fig and -spec output differ:\n-fig:\n%s\n-spec:\n%s", fig, fromFig.String(), fromSpec.String())
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-fig", "9"},
		{"-chips", "No Such GPU"},
		{"-bench", "nope"},
		{"-margin", "1.5"},
		{"-confidence", "0"},
	} {
		var out, errOut strings.Builder
		if err := run(context.Background(), args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(errOut.String(), "-fig") {
		t.Fatalf("usage text missing:\n%s", errOut.String())
	}
}

// writeMiniSpec writes a small experiment spec to a temp file.
func writeMiniSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const miniProtectionSpec = `{
	"version": 1,
	"name": "mini-protection",
	"chips": ["Mini NVIDIA"],
	"benchmarks": ["matrixMul"],
	"structures": ["register-file", "local-memory"],
	"estimator": "fi",
	"injections": 200,
	"seed": 31,
	"metrics": {
		"epf": true,
		"protection": [
			{"name": "unprotected"},
			{"name": "parity-rf", "schemes": [{"structure": "register-file", "scheme": "parity"}]}
		]
	}
}`

// TestRunSpecFile: the protection what-if sweep — a scenario the figure
// flags cannot express — runs from a JSON spec via -spec, and explicit
// campaign flags override the file.
func TestRunSpecFile(t *testing.T) {
	path := writeMiniSpec(t, miniProtectionSpec)
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-spec", path, "-n", "40"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"mini-protection", "Executions per Failure", "protection what-ifs", "unprotected", "parity-rf", "40 injections/campaign"} {
		if !strings.Contains(text, want) {
			t.Fatalf("spec output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(errOut.String(), `msg="cell done" done=2 total=2`) {
		t.Fatalf("progress lines missing:\n%s", errOut.String())
	}
}

func TestRunSpecFileJSON(t *testing.T) {
	path := writeMiniSpec(t, miniProtectionSpec)
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-spec", path, "-n", "30", "-json"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spec struct {
			Name       string `json:"name"`
			Injections int    `json:"injections"`
		} `json:"spec"`
		Tables     []json.RawMessage `json:"tables"`
		Protection []json.RawMessage `json:"protection"`
	}
	if err := json.NewDecoder(strings.NewReader(out.String())).Decode(&doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if doc.Spec.Name != "mini-protection" || doc.Spec.Injections != 30 {
		t.Fatalf("spec echo wrong: %+v", doc.Spec)
	}
	if len(doc.Tables) != 2 || len(doc.Protection) != 2 {
		t.Fatalf("result shape: %d tables, %d protection rows", len(doc.Tables), len(doc.Protection))
	}
}

// TestRunSpecOnServer drives -spec -server against a live fiserver.
func TestRunSpecOnServer(t *testing.T) {
	sched := campaign.New(campaign.Config{})
	ts := httptest.NewServer(service.NewServer(sched))
	defer ts.Close()

	path := writeMiniSpec(t, miniProtectionSpec)
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-spec", path, "-n", "40", "-server", ts.URL}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "protection what-ifs") {
		t.Fatalf("remote spec output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "job=exp-") {
		t.Fatalf("job line missing:\n%s", errOut.String())
	}
	if sched.Stats().Runs == 0 {
		t.Fatal("server scheduler never executed a campaign")
	}
}

func TestRunSpecErrors(t *testing.T) {
	badSpec := writeMiniSpec(t, `{"version": 1, "injctions": 5}`)
	for _, args := range [][]string{
		{"-spec", "/no/such/file.json"},
		{"-spec", badSpec},
		{"-server", "http://localhost:1"}, // -server without -spec
	} {
		var out, errOut strings.Builder
		if err := run(context.Background(), args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSpecServerRejectsLocalFlags: -store and -workers configure the
// local scheduler and must not be silently dropped on remote runs.
func TestRunSpecServerRejectsLocalFlags(t *testing.T) {
	path := writeMiniSpec(t, miniProtectionSpec)
	for _, args := range [][]string{
		{"-spec", path, "-server", "http://localhost:1", "-store", "/tmp/x.store"},
		{"-spec", path, "-server", "http://localhost:1", "-workers", "4"},
	} {
		var out, errOut strings.Builder
		err := run(context.Background(), args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "local-only") {
			t.Errorf("args %v: err %v, want local-only rejection", args, err)
		}
	}
}
