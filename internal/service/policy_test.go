package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/testutil"
)

// awaitJob polls a job until it leaves "running" and returns its final
// status document.
func awaitJob(t *testing.T, ts *httptest.Server, id string) (status struct {
	State string      `json:"state"`
	Cells []cellState `json:"cells"`
}) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if testutil.GetJSON(t, ts.URL, "/v1/jobs/"+id, &status) != http.StatusOK {
			t.Fatal("status not OK")
		}
		if status.State != "running" {
			return status
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobPolicyAdaptive submits a batch under an adaptive policy and
// checks that the realized injection counts stop below the cap, that the
// per-cell status reports them, and that the scheduler stats surface the
// injection totals and upgrades.
func TestJobPolicyAdaptive(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const cap = 800
	spec := testutil.MiniSpec("vectoradd", 3)
	spec.Injections = cap

	var submitted struct {
		ID string `json:"id"`
	}
	req := map[string]any{
		"cells":  []campaign.CellSpec{spec},
		"policy": map[string]any{"margin": 0.1, "confidence": 0.99},
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", req, &submitted, http.StatusAccepted)
	status := awaitJob(t, ts, submitted.ID)
	if status.State != "done" {
		t.Fatalf("final status %+v", status)
	}
	realized := status.Cells[0].Injections
	if realized <= 0 || realized >= cap {
		t.Fatalf("cell realized %d injections, want adaptive stop below cap %d", realized, cap)
	}

	// The same cell submitted fixed-size must upgrade the cached result.
	req = map[string]any{"cells": []campaign.CellSpec{spec}}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", req, &submitted, http.StatusAccepted)
	status = awaitJob(t, ts, submitted.ID)
	if status.State != "done" {
		t.Fatalf("final status %+v", status)
	}
	if got := status.Cells[0].Injections; got != cap {
		t.Fatalf("fixed-size resubmit realized %d injections, want the cap %d", got, cap)
	}
	if st := sched.Stats(); st.Upgrades != 1 || st.Runs != 2 {
		t.Fatalf("scheduler stats %+v, want one upgrade over two runs", st)
	}

	var stats struct {
		Injections int64 `json:"injections"`
		Upgrades   int64 `json:"upgrades"`
	}
	if testutil.GetJSON(t, ts.URL, "/v1/stats", &stats) != http.StatusOK {
		t.Fatal("stats not OK")
	}
	if stats.Injections != int64(realized+cap) || stats.Upgrades != 1 {
		t.Fatalf("stats %+v, want %d injections and 1 upgrade", stats, realized+cap)
	}
}

// TestJobPolicyMaxInjections: the wire policy's max_injections overrides
// each cell's cap (and therefore its identity).
func TestJobPolicyMaxInjections(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := testutil.MiniSpec("vectoradd", 4)
	spec.Injections = 500
	var submitted struct {
		ID string `json:"id"`
	}
	req := map[string]any{
		"cells":  []campaign.CellSpec{spec},
		"policy": map[string]any{"max_injections": 30},
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", req, &submitted, http.StatusAccepted)
	status := awaitJob(t, ts, submitted.ID)
	if status.State != "done" {
		t.Fatalf("final status %+v", status)
	}
	if got := status.Cells[0].Spec.Injections; got != 30 {
		t.Fatalf("normalized spec cap %d, want the policy override 30", got)
	}
	if got := status.Cells[0].Injections; got != 30 {
		t.Fatalf("realized %d injections, want 30", got)
	}
}

// TestJobPolicyValidation: out-of-range policies are rejected up front.
func TestJobPolicyValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, policy := range []map[string]any{
		{"margin": 5},
		{"margin": -0.1},
		{"confidence": 1.5},
		{"confidence": -1},
		{"max_injections": -2},
	} {
		req := map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 9)}, "policy": policy}
		testutil.PostJSON(t, ts.URL, "/v1/jobs", req, nil, http.StatusBadRequest)
	}
}
