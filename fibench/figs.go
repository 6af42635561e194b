package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/report"
)

// figsInjections is the fixed per-cell injection count of the figure
// workloads: 80 distinct cells x 20 = 1,600 injections per cold pass.
const figsInjections = 20

// figSpecs returns the canned Fig. 1-3 specs at the workload's seed and
// injection count.
func figSpecs(seed uint64) ([]experiment.Spec, error) {
	var specs []experiment.Spec
	for fig := 1; fig <= 3; fig++ {
		s, err := experiment.Figure(fig)
		if err != nil {
			return nil, err
		}
		s.Seed = seed
		s.Injections = figsInjections
		specs = append(specs, s)
	}
	return specs, nil
}

// compileAll compiles every spec into its plan.
func compileAll(specs []experiment.Spec) ([]*experiment.Plan, error) {
	plans := make([]*experiment.Plan, len(specs))
	for i, s := range specs {
		p, err := s.Compile()
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.Name, err)
		}
		plans[i] = p
	}
	return plans, nil
}

// figsPass is one run of the three figure specs through one Runner over
// one Scheduler and one binary store.
type figsPass struct {
	wall, setup time.Duration
	specTimes   []time.Duration // per spec: RunPlan plus rendering
	assemble    time.Duration   // per pass: RunPlan time after its last cell arrived
	out         []byte          // the three rendered result documents
	gridCells   int             // cells delivered across the three results
	injections  int             // realized injections of the distinct cells
	masked      int             // masked outcomes of the distinct cells
	stats       campaign.Stats
	check       checks
	root        int // the pass's root span (traced passes only)
}

// checks counts verified outputs.
type checks struct {
	attempted, failed int
	errs              []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, e := range o.errs {
		if len(c.errs) < 10 {
			c.errs = append(c.errs, e)
		}
	}
}

// runFigsPass opens (fresh: creates) the binary store at path, runs the
// three figure specs and renders their results. tr may be nil.
func runFigsPass(ctx context.Context, path string, fresh bool, seed uint64, workers int, tr *tracer) (*figsPass, error) {
	p := &figsPass{}
	start := time.Now()
	p.root = tr.begin("workload", "", "", 0)
	defer tr.end(p.root)

	cid := tr.begin("experiment.compile", "experiment", "", p.root)
	specs, err := figSpecs(seed)
	if err != nil {
		return nil, err
	}
	plans, err := compileAll(specs)
	tr.end(cid)
	if err != nil {
		return nil, err
	}
	if fresh {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	oid := tr.begin("campaign.store_open", "campaign", "", p.root)
	st, err := campaign.OpenStore(path, campaign.FormatBinary)
	tr.end(oid)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(start)

	var cur atomic.Int64 // the run span store calls belong to
	var store campaign.Store = st
	var exec campaign.Executor = campaign.NewLocalExecutor()
	if tr != nil {
		store = &tracedStore{inner: st, tr: tr, parent: func() int { return int(cur.Load()) }}
		exec = &tracedExecutor{inner: exec, tr: tr, name: "finject.execute"}
	}
	sched := campaign.New(campaign.Config{Store: store, Workers: workers, Executor: exec})

	seen := map[campaign.CellKey]bool{}
	var buf bytes.Buffer
	for _, plan := range plans {
		t0 := time.Now()
		rid := tr.begin("experiment.run", "experiment", plan.Spec.Name, p.root)
		cur.Store(int64(rid))
		var lastCell time.Time
		var mu sync.Mutex
		runner := experiment.Runner{Scheduler: sched}
		if tr != nil {
			runner.OnCell = func(experiment.Progress) {
				mu.Lock()
				lastCell = time.Now()
				mu.Unlock()
			}
		}
		res, err := runner.RunPlan(withSpan(ctx, rid), plan)
		tr.end(rid)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("run %s: %w", plan.Spec.Name, err)
		}
		if tr != nil {
			mu.Lock()
			p.assemble += time.Since(lastCell)
			mu.Unlock()
		}
		p.gridCells += len(plan.Cells)
		checkPlan(&p.check, plan, res, seen, &p.injections, &p.masked)

		wid := tr.begin("report.render", "report", plan.Spec.Name, p.root)
		err = report.WriteExperimentJSON(&buf, res)
		tr.end(wid)
		if err != nil {
			st.Close()
			return nil, err
		}
		p.specTimes = append(p.specTimes, time.Since(t0))
	}
	cl := tr.begin("campaign.store_close", "campaign", "", p.root)
	err = st.Close()
	tr.end(cl)
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(start)
	p.out = buf.Bytes()
	p.stats = sched.Stats()
	return p, nil
}

// checkPlan verifies that every planned cell is present in res with the
// plan's injection count and outcome counts summing to it. Distinct
// cells (by key, first sighting) add their injections and masked
// outcomes to the totals.
func checkPlan(c *checks, plan *experiment.Plan, res *experiment.Result, seen map[campaign.CellKey]bool, injections, masked *int) {
	for _, pc := range plan.Cells {
		c.attempted++
		tbl := res.Table(pc.Structure)
		if tbl == nil || pc.BenchIndex >= len(tbl.Cells) || pc.ChipIndex >= len(tbl.Cells[pc.BenchIndex]) {
			c.fail("%s: %s/%s/%s missing", plan.Spec.Name, pc.Chip.Name, pc.Benchmark.Name, pc.Structure)
			continue
		}
		cell := tbl.Cells[pc.BenchIndex][pc.ChipIndex]
		if cell == nil || cell.Chip != pc.Chip.Name || cell.Benchmark != pc.Benchmark.Name || cell.Structure != pc.Structure {
			c.fail("%s: %s/%s/%s missing or misplaced", plan.Spec.Name, pc.Chip.Name, pc.Benchmark.Name, pc.Structure)
			continue
		}
		sum := 0
		for _, n := range cell.Outcomes {
			sum += n
		}
		if cell.Injections != plan.Spec.Injections || sum != cell.Injections {
			c.fail("%s: %s/%s/%s has %d injections, outcomes sum %d, want %d",
				plan.Spec.Name, pc.Chip.Name, pc.Benchmark.Name, pc.Structure, cell.Injections, sum, plan.Spec.Injections)
			continue
		}
		key := campaign.SpecOf(pc.Campaign).Key()
		if !seen[key] {
			seen[key] = true
			*injections += cell.Injections
			*masked += cell.Outcomes[gpu.OutcomeMasked]
		}
	}
}

// figsSetup times the workload's set-up alone — compiling the three
// specs and creating (fresh) or opening the store — reps times.
func figsSetup(path string, fresh bool, seed uint64, reps int) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		if fresh {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		t0 := time.Now()
		specs, err := figSpecs(seed)
		if err != nil {
			return nil, err
		}
		if _, err := compileAll(specs); err != nil {
			return nil, err
		}
		st, err := campaign.OpenStore(path, campaign.FormatBinary)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
