// Command fibench is the repository's end-to-end benchmark. It runs one
// workload — figs-cold or figs-warm — through the public APIs of the
// experiment, campaign and finject packages, checks every output, and
// prints its metrics, the last line of standard output being one JSON
// object. With -trace 1 it instead probes each layer, the service,
// worker and client packages included, records spans at the layer
// boundaries and prints the per-layer metrics. It runs from the checkout root, next to
// BENCHMARK.json, and writes only under .bench_build there. See
// README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// env is one invocation's configuration.
type env struct {
	seed    uint64
	seconds time.Duration
	nproc   int
	work    string // scratch directory inside the checkout
	trace   bool
}

// outcome is what a workload reports.
type outcome struct {
	metrics metrics
	check   checks
	digest  string // SHA-256 of the workload's verified result bytes
	notes   []string
	tr      *tracer
}

var workloadRuns = map[string]func(context.Context, env) (*outcome, error){
	"figs-cold": figsCold,
	"figs-warm": figsWarm,
}

// declared is the slice of BENCHMARK.json this program checks its output
// against.
type declared struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figs-cold or figs-warm")
	seed := fs.Uint64("seed", 1, "workload seed (documented held-out seed: 7)")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadRuns[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fibench: need -workload figs-cold|figs-warm, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	var decl declared
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &decl)
	}
	if err != nil {
		fmt.Fprintf(stderr, "fibench: %v\n", err)
		return 1
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("fibench-work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "fibench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, nproc: runtime.NumCPU(), work: work, trace: *trace == 1}
	fmt.Fprintf(stdout, "fibench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), commitOf("."), sourceDigest("."))

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	out, err := wl(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "fibench: %s: %v\n", *name, err)
		return 1
	}
	if out.tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("fibench-trace-%s-%d.json", *name, *seed))
		if err := out.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "fibench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s\n", path)
	}

	want := decl.EndToEnd
	if e.trace {
		want = decl.PerLayer
	}
	for _, d := range want {
		got, ok := out.metrics[d.Name]
		if !ok || got.Unit != d.Unit {
			fmt.Fprintf(stderr, "fibench: metric %s (%s) declared in BENCHMARK.json but not produced as declared\n", d.Name, d.Unit)
			return 1
		}
	}
	if len(out.metrics) != len(want) {
		fmt.Fprintf(stderr, "fibench: produced %d metrics, BENCHMARK.json declares %d\n", len(out.metrics), len(want))
		return 1
	}

	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-32s %16.6g %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	fmt.Fprintf(stdout, "result sha256=%s\n", out.digest)
	c := out.check
	fmt.Fprintf(stdout, "checks attempted=%d failed=%d fail_ratio=%g\n", c.attempted, c.failed, ratio(float64(c.failed), float64(c.attempted)))
	for _, msg := range c.errs {
		fmt.Fprintf(stdout, "check failed: %s\n", msg)
	}
	correct := c.failed == 0 && c.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, max(c.attempted, 1), c.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "fibench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}
