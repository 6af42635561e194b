package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ace"
	"repro/internal/chips"
	"repro/internal/client"
	"repro/internal/devices"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// miniFigureSpec is the canned spec of one paper figure narrowed to a
// Mini grid, as a client posts it to /v1/experiments.
func miniFigureSpec(t *testing.T, fig int, chipNames, benchNames []string, n int, seed uint64) experiment.Spec {
	t.Helper()
	spec, err := experiment.Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chips = chipNames
	spec.Benchmarks = benchNames
	spec.Injections = n
	spec.Seed = seed
	return spec
}

// postSpec posts a spec to /v1/experiments and returns the raw answer.
func postSpec(t *testing.T, ts *httptest.Server, spec experiment.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// engineFigure1 computes the Fig. 1 table of one (chip, benchmark) cell
// straight on the injection engine and the ACE analyzer — no scheduler,
// no spec runner. It is the reference the figure spec run over HTTP must
// keep matching byte for byte.
func engineFigure1(t *testing.T, chip *chips.Chip, bench *workloads.Benchmark, n int, seed uint64) *experiment.Table {
	t.Helper()
	res, err := finject.Run(finject.Campaign{
		Chip:       chip,
		Benchmark:  bench,
		Structure:  gpu.RegisterFile,
		Injections: n,
		Seed:       experiment.CellSeed(seed, chip.Name, bench.Name, gpu.RegisterFile),
		Policy:     finject.Policy{Confidence: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := res.AVFInterval(0.99)
	if err != nil {
		t.Fatal(err)
	}
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	regACE, _, runStats, err := ace.Measure(d, hp)
	if err != nil {
		t.Fatal(err)
	}
	cell := &experiment.Cell{
		Chip:       chip.Name,
		Benchmark:  bench.Name,
		Structure:  gpu.RegisterFile,
		AVFFI:      res.AVF(),
		AVFFILo:    lo,
		AVFFIHi:    hi,
		AVFACE:     regACE,
		Occupancy:  res.Occupancy,
		Cycles:     runStats.Cycles,
		Injections: res.Injections,
		Outcomes:   res.Outcomes,
	}
	// The figures' per-chip "average" group: summed over the benchmark
	// axis, carrying only the averaged fields.
	avg := &experiment.Cell{Chip: chip.Name, Benchmark: "average", Structure: gpu.RegisterFile}
	avg.AVFFI = cell.AVFFI / 1
	avg.AVFACE = cell.AVFACE / 1
	avg.Occupancy = cell.Occupancy / 1
	return &experiment.Table{
		Structure: gpu.RegisterFile,
		Cells:     [][]*experiment.Cell{{cell}},
		Averages:  []*experiment.Cell{avg},
	}
}

// TestFigureSpecMatchesEngineReference: the Fig. 1 spec posted to
// /v1/experiments streams exactly the job, progress and result lines
// reconstructed here directly on the measurement engines.
func TestFigureSpecMatchesEngineReference(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	chip := chips.MiniNVIDIA()
	bench, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 40, 5
	spec := miniFigureSpec(t, 1, []string{chip.Name}, []string{bench.Name}, n, seed)

	resp := postSpec(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The expected stream, byte for byte: the job line, one progress
	// line for the single cell, then the result event.
	norm, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, ev := range []experimentEvent{
		{Event: "job", ID: "exp-000001", Name: norm.Name, Total: 1},
		{
			Event:     "cell",
			Chip:      chip.Name,
			Benchmark: bench.Name,
			Structure: gpu.RegisterFile.String(),
			Done:      1,
			Total:     1,
		},
		{Event: "result", ID: "exp-000001", Name: norm.Name, Result: &experiment.Result{
			Spec:       norm,
			Chips:      []string{chip.Name},
			Benchmarks: []string{bench.Name},
			Tables:     []*experiment.Table{engineFigure1(t, chip, bench, n, seed)},
		}},
	} {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("figure spec stream drifted from the engine reference:\ngot:\n%s\nwant:\n%s", body, want.Bytes())
	}
}

// TestFigureSpecStream: a Fig. 1 spec streams one progress line per grid
// cell and a final result; a warm rerun is served entirely from the
// store.
func TestFigureSpecStream(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	spec := miniFigureSpec(t, 1, []string{"Mini NVIDIA"}, []string{"vectoradd", "transpose"}, 10, 3)

	resp := postSpec(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("content type %q", ct)
	}
	var cellEvents int
	var last client.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var ev client.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Event == "cell" {
			cellEvents++
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cellEvents != 2 {
		t.Fatalf("%d cell events, want 2 (2 benchmarks x 1 chip)", cellEvents)
	}
	if last.Event != "result" || last.Name != "fig1-register-file-avf" || last.Result == nil {
		t.Fatalf("final event %+v", last)
	}
	if sched.Stats().Runs != 2 {
		t.Fatalf("figure ran %d campaigns, want 2", sched.Stats().Runs)
	}

	// A warm rerun answers entirely from the store.
	var cached int
	_, err := (&client.Client{Base: ts.URL}).RunExperiment(context.Background(), spec, func(ev client.Event) {
		if ev.Event == "cell" && ev.Cached {
			cached++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached != 2 || sched.Stats().Runs != 2 {
		t.Fatalf("warm figure rerun: %d cached cells, %d campaigns run in total", cached, sched.Stats().Runs)
	}
}

// TestFigureSpecValidation: a figure spec with an unknown axis entry or
// an illegal budget is rejected with 400 before anything runs.
func TestFigureSpecValidation(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := &client.Client{Base: ts.URL}
	for name, mutate := range map[string]func(*experiment.Spec){
		"bad injections": func(s *experiment.Spec) { s.Injections = -1 },
		"unknown chip":   func(s *experiment.Spec) { s.Chips = []string{"no such chip"} },
		"unknown bench":  func(s *experiment.Spec) { s.Benchmarks = []string{"no-such-bench"} },
	} {
		spec := miniFigureSpec(t, 1, []string{"Mini NVIDIA"}, []string{"vectoradd"}, 10, 1)
		mutate(&spec)
		if _, err := cl.RunExperiment(context.Background(), spec, nil); client.StatusCode(err) != http.StatusBadRequest {
			t.Errorf("%s: err %v, want 400", name, err)
		}
	}
	if sched.Stats().Runs != 0 {
		t.Fatal("a rejected spec ran campaigns")
	}
}

// TestFigureSpecAdaptivePolicy drives a figure spec with an adaptive
// policy: every campaign stops below the cap, and out-of-range policies
// are rejected.
func TestFigureSpecAdaptivePolicy(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := &client.Client{Base: ts.URL}

	spec := miniFigureSpec(t, 1, []string{"Mini NVIDIA"}, []string{"vectoradd"}, 600, 1)
	spec.Policy.Margin = 0.1
	if _, err := cl.RunExperiment(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	st := sched.Stats()
	if st.Runs != 1 {
		t.Fatalf("stats %+v, want one campaign", st)
	}
	if st.Injections <= 0 || st.Injections >= 600 {
		t.Fatalf("figure campaign executed %d injections, want adaptive stop below 600", st.Injections)
	}

	bad := spec
	bad.Policy.Margin = 2
	if _, err := cl.RunExperiment(context.Background(), bad, nil); client.StatusCode(err) != http.StatusBadRequest {
		t.Fatalf("bad margin: err %v, want 400", err)
	}
	bad = spec
	bad.Policy.Confidence = 1.5
	if _, err := cl.RunExperiment(context.Background(), bad, nil); client.StatusCode(err) != http.StatusBadRequest {
		t.Fatalf("bad confidence: err %v, want 400", err)
	}
}
