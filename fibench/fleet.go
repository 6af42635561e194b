package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/worker"
)

// The fleet workload's job shape: both mini chips, two benchmarks from
// the cheap set, both structures, two injections per cell — eight cells
// per job, small enough that the control plane shows.
var (
	fleetChips   = []string{"Mini NVIDIA", "Mini AMD"}
	fleetBenches = []string{"vectoradd", "transpose", "reduction", "scan", "histogram"}
	fleetPairs   = pairs(fleetBenches)
)

const fleetInjections = 2

// jobsPerClient sizes a round: each of the nproc clients runs this many
// jobs per round on average. Rounds of 20*nproc jobs cycle through all
// ten benchmark pairs a whole number of times, so every round carries
// the same mix of work.
const jobsPerClient = 20

// pairs lists every unordered pair of names.
func pairs(names []string) [][]string {
	var out [][]string
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			out = append(out, []string{names[i], names[j]})
		}
	}
	return out
}

// fleetSpec generates job idx of the run at seed: the next benchmark
// pair and a fresh campaign seed, so no cell is ever served from the
// store.
func fleetSpec(seed uint64, idx int) experiment.Spec {
	return experiment.Spec{
		Name:       fmt.Sprintf("fleet-job-%d", idx),
		Chips:      fleetChips,
		Benchmarks: fleetPairs[idx%len(fleetPairs)],
		Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
		Estimator:  experiment.EstimatorFI,
		Injections: fleetInjections,
		Seed:       stats.NewRNG(seed).Derive(uint64(idx)).Uint64(),
	}
}

// fleet is one in-process fiserver with remote workers enabled, one
// worker draining its lease queue, and the clients' HTTP stack, all on
// loopback.
type fleet struct {
	base     string
	hs       *http.Server
	srv      *service.Server
	served   chan struct{}
	sched    *campaign.Scheduler
	conns    []*http.Transport
	cancel   context.CancelFunc
	workerWG sync.WaitGroup
	client   *client.Client
}

// firstLease closes ready when the worker sends its first lease request.
type firstLease struct {
	inner http.RoundTripper
	once  sync.Once
	ready chan struct{}
}

func (f *firstLease) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/workers/lease" {
		f.once.Do(func() { close(f.ready) })
	}
	return f.inner.RoundTrip(req)
}

// bootFleet starts a fleet and returns once the server answers /healthz
// and the worker is polling for leases. With tr non-nil every HTTP
// request, executed cell and store access is recorded.
func bootFleet(ctx context.Context, nproc int, tr *tracer) (*fleet, error) {
	var store campaign.Store = campaign.NewMemoryStore(0)
	queue := campaign.NewLeaseQueue(campaign.DefaultLeaseTTL)
	var exec campaign.Executor = campaign.NewRemoteExecutor(queue)
	ct, wt := newTransport(nproc), newTransport(nproc)
	var clientRT, workerRT http.RoundTripper = ct, wt
	if tr != nil {
		store = &tracedStore{inner: store, tr: tr, parent: func() int { return 0 }}
		exec = &tracedExecutor{inner: exec, tr: tr, name: "campaign.remote_execute"}
		clientRT = &tracedTransport{inner: clientRT, tr: tr}
		workerRT = &tracedTransport{inner: workerRT, tr: tr}
	}
	// The scheduler's in-flight bound is how many cells the fleet can
	// see at once, as in fiserver -workers-remote; cells waiting on the
	// queue do no work.
	sched := campaign.New(campaign.Config{Store: store, Workers: 256, Executor: exec})
	srv := service.NewServer(sched)
	srv.ServeWorkers(queue)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{
		base:   "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: srv},
		srv:    srv,
		served: make(chan struct{}),
		sched:  sched,
		conns:  []*http.Transport{ct, wt},
	}
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	fl := &firstLease{inner: workerRT, ready: make(chan struct{})}
	w := worker.New(&worker.Client{Base: f.base, Name: "w1", HTTPClient: &http.Client{Transport: fl}},
		worker.Options{Concurrency: nproc, CampaignWorkers: 1})
	wctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.workerWG.Add(1)
	go func() {
		defer f.workerWG.Done()
		_ = w.Run(wctx) // returns nil once wctx ends
	}()
	f.client = &client.Client{Base: f.base, HTTPClient: &http.Client{Transport: clientRT}}
	if err := f.client.Healthy(ctx); err != nil {
		f.close()
		return nil, fmt.Errorf("fleet not healthy: %w", err)
	}
	select {
	case <-fl.ready:
	case <-ctx.Done():
		f.close()
		return nil, ctx.Err()
	}
	return f, nil
}

// newTransport returns the HTTP transport of the worker or the clients.
// The worker's protocol client decodes JSON answers and closes the body
// before reading the encoder's trailing newline, so the transport cannot
// reuse those connections and dials new ones. Closing with SO_LINGER 0
// sends a reset instead of leaving each dead connection in TIME-WAIT for
// a minute: the run still pays for every dial, but thousands of
// lingering sockets cannot slow connect() for the rest of the run and
// for the runs after it.
func newTransport(conns int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns + 1
	d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second, Control: noLinger}
	t.DialContext = d.DialContext
	return t
}

// noLinger sets SO_LINGER 0 on a socket before it connects.
func noLinger(_, _ string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptLinger(int(fd), syscall.SOL_SOCKET, syscall.SO_LINGER, &syscall.Linger{Onoff: 1})
	}); err != nil {
		return err
	}
	return serr
}

// close stops the worker, drains the server's jobs and closes the
// listener, waiting for every goroutine it started.
func (f *fleet) close() {
	f.cancel()
	f.workerWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.srv.Shutdown(ctx) // no job is running once the clients returned
	_ = f.hs.Close()
	<-f.served
	for _, t := range f.conns {
		t.CloseIdleConnections()
	}
}

// fleetRound is one closed-loop round: nproc clients pull jobs from a
// shared counter, each submitting its next job only after the previous
// result arrived, until the round's jobs are done.
type fleetRound struct {
	wall  time.Duration
	cells int                  // cells of the verified jobs
	res   []*experiment.Result // per job, in job order
	out   [][]byte             // rendered result per job
	errs  []error              // per job
	root  int
}

// runFleetRound runs jobs [first, first+n) against f with nproc clients.
func runFleetRound(ctx context.Context, f *fleet, seed uint64, first, n, nproc int, tr *tracer) *fleetRound {
	r := &fleetRound{res: make([]*experiment.Result, n), out: make([][]byte, n), errs: make([]error, n)}
	r.root = tr.begin("workload", "", "", 0)
	defer tr.end(r.root)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				spec := fleetSpec(seed, first+i)
				jid := tr.begin("client.job", "client", spec.Name, r.root)
				res, err := f.client.RunExperiment(withSpan(ctx, jid), spec, nil)
				tr.end(jid)
				if err == nil {
					var buf bytes.Buffer
					err = report.WriteExperimentJSON(&buf, res)
					r.res[i], r.out[i] = res, buf.Bytes()
				}
				r.errs[i] = err
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	return r
}

// inProcessRound runs the same jobs as a fleet round through one
// in-process scheduler (nproc cells at a time, one simulation each) and
// returns the rendered results and the round's wall time.
func inProcessRound(ctx context.Context, sched *campaign.Scheduler, seed uint64, first, n, nproc int) ([][]byte, []error, time.Duration) {
	out := make([][]byte, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				runner := experiment.Runner{Scheduler: sched}
				res, err := runner.Run(ctx, fleetSpec(seed, first+i))
				if err == nil {
					var buf bytes.Buffer
					err = report.WriteExperimentJSON(&buf, res)
					out[i] = buf.Bytes()
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	return out, errs, time.Since(start)
}

// verifyRound checks a fleet round against the in-process results of the
// same jobs: each job succeeded, its cells are complete and consistent,
// and its bytes equal the in-process bytes. It returns the job checks and
// counts the round's verified cells.
func verifyRound(r *fleetRound, want [][]byte, wantErr []error, seed uint64, first int) checks {
	var c checks
	for i := range r.out {
		c.attempted++
		spec := fleetSpec(seed, first+i)
		switch {
		case r.errs[i] != nil:
			c.fail("job %d refused or failed: %v", first+i, r.errs[i])
			continue
		case wantErr[i] != nil:
			c.fail("job %d failed in process: %v", first+i, wantErr[i])
			continue
		case !bytes.Equal(r.out[i], want[i]):
			c.fail("job %d: fleet result differs from the in-process result", first+i)
			continue
		}
		plan, err := spec.Compile()
		if err != nil {
			c.fail("job %d: %v", first+i, err)
			continue
		}
		var cc checks
		var injs, masked int
		checkPlan(&cc, plan, r.res[i], map[campaign.CellKey]bool{}, &injs, &masked)
		if cc.failed > 0 {
			c.fail("job %d: %v", first+i, cc.errs)
			continue
		}
		r.cells += len(plan.Cells)
	}
	return c
}
