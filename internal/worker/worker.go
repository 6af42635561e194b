// Package worker implements the fiworker side of the distributed
// campaign tier: an HTTP client for the fiserver worker protocol (lease /
// heartbeat / complete) and a pull-based worker loop that runs leased
// cells through the local deterministic injection engine and streams the
// results back. Because campaigns are deterministic functions of their
// spec, a cell computed here is byte-identical to one computed by the
// server or by any other worker — the fleet only moves work, never
// results.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/telemetry"
)

// Client speaks the fiserver worker protocol. It may be pointed at a
// whole cluster: Base accepts a comma-separated list of server URLs,
// and the client sticks to one until it fails (transport error or 5xx
// — a dead server or a standby answering 503), then rotates to the
// next. Determinism makes the servers interchangeable: whichever owner
// grants the lease, the cell's result is the same bytes.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080", or a
	// comma-separated list of them for a clustered control plane.
	Base string
	// Name identifies this worker in leases and server-side stats.
	Name string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	mu    sync.Mutex
	bases []string
	cur   int
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// current returns the server the client is currently stuck to, parsing
// Base on first use.
func (c *Client) current() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bases == nil {
		for _, b := range strings.Split(c.Base, ",") {
			if b = strings.TrimSpace(b); b != "" {
				c.bases = append(c.bases, strings.TrimRight(b, "/"))
			}
		}
		if len(c.bases) == 0 {
			c.bases = []string{""}
		}
	}
	return c.bases[c.cur]
}

// failover rotates to the next server, but only if from is still the
// current one — concurrent requests that all fail against the same
// server advance the cursor once, not once each.
func (c *Client) failover(from string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bases) > 1 && c.bases[c.cur] == from {
		c.cur = (c.cur + 1) % len(c.bases)
	}
}

// post sends one JSON request and decodes the JSON answer into out
// (ignored when nil). Non-2xx statuses become errors carrying the
// server's error body, with the status code retrievable via errStatus.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	base := c.current()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		// Unreachable server: try the next one on the following call.
		c.failover(base)
		return err
	}
	if resp.StatusCode/100 == 5 {
		// A 5xx — notably a cluster standby's 503 — means this server
		// cannot grant work; rotate before the caller retries.
		c.failover(base)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		// Both server generations speak here: the unified envelope
		// {"error":{"code","message",...}} and the legacy flat string.
		var e struct {
			Error json.RawMessage `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		msg := ""
		if json.Unmarshal(e.Error, &msg) != nil {
			var env struct {
				Message string `json:"message"`
			}
			if json.Unmarshal(e.Error, &env) == nil {
				msg = env.Message
			}
		}
		return &statusError{code: resp.StatusCode, msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// maxDrain bounds how much of an unread response body drainClose reads.
const maxDrain = 64 << 10

// drainClose reads what json.Decoder left of body (at least the
// trailing newline) before closing it, so the transport can reuse the
// keep-alive connection. Draining is best effort: a body with more
// than maxDrain bytes left, or a failed read, only costs the connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	body.Close()
}

// statusError is a non-2xx protocol answer.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("server status %d: %s", e.code, e.msg)
}

// errStatus extracts the HTTP status behind err, or 0.
func errStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// Lease asks for up to max cells, long-polling the server for wait.
func (c *Client) Lease(ctx context.Context, max int, wait time.Duration) ([]campaign.Lease, error) {
	var resp struct {
		Leases []campaign.Lease `json:"leases"`
	}
	err := c.post(ctx, "/v1/workers/lease", map[string]any{
		"worker": c.Name, "max": max, "wait_ms": wait.Milliseconds(),
	}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Leases, nil
}

// Heartbeat renews a lease; alive == false means the server re-queued or
// already resolved the cell and further work on it is wasted.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) (alive bool, err error) {
	err = c.post(ctx, "/v1/workers/"+leaseID+"/heartbeat", map[string]any{}, nil)
	if errStatus(err) == http.StatusGone {
		return false, nil
	}
	return err == nil, err
}

// Complete delivers the cell's result (or the execution error when
// errMsg is non-empty).
func (c *Client) Complete(ctx context.Context, leaseID string, res *finject.Result, errMsg string) error {
	body := map[string]any{}
	if errMsg != "" {
		body["error"] = errMsg
	} else {
		body["result"] = res
	}
	return c.post(ctx, "/v1/workers/"+leaseID+"/complete", body, nil)
}

// Options tunes a Worker.
type Options struct {
	// Concurrency is the number of cells executed in parallel (1 when 0).
	Concurrency int
	// CampaignWorkers bounds the parallel simulations inside one cell
	// (GOMAXPROCS divided by Concurrency when 0, so the two levels never
	// multiply beyond the machine). Never affects results.
	CampaignWorkers int
	// Poll is the lease long-poll duration (2s when 0).
	Poll time.Duration
	// Logger, when non-nil, receives one structured record per lease and
	// completion, correlated with the job id carried on the lease wire.
	Logger *slog.Logger
}

// Worker drains a fiserver's lease queue until its context ends: lease,
// simulate, heartbeat while running, complete. Golden reference runs are
// shared across every cell this worker executes for the same (chip,
// benchmark) pair, exactly as in the in-process scheduler.
type Worker struct {
	client *Client
	exec   *campaign.LocalExecutor
	opts   Options

	completed atomic.Int64
	failed    atomic.Int64
}

// New builds a Worker over the client.
func New(client *Client, opts Options) *Worker {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.CampaignWorkers <= 0 {
		opts.CampaignWorkers = runtime.GOMAXPROCS(0) / opts.Concurrency
		if opts.CampaignWorkers < 1 {
			opts.CampaignWorkers = 1
		}
	}
	if opts.Poll <= 0 {
		opts.Poll = 2 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Worker{client: client, exec: campaign.NewLocalExecutor(), opts: opts}
}

// Completed reports cells this worker finished successfully.
func (w *Worker) Completed() int64 { return w.completed.Load() }

// Failed reports cells whose execution errored (reported to the server).
func (w *Worker) Failed() int64 { return w.failed.Load() }

// Run drains leases until ctx is canceled, then returns nil. Transient
// server errors (including an unreachable server) are retried after one
// poll interval — a worker outlives server restarts.
func (w *Worker) Run(ctx context.Context) error {
	sem := make(chan struct{}, w.opts.Concurrency)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil
		}
		// Widen the request to every idle slot: a multi-cell grant is a
		// cost-balanced shard of the backlog.
		free := 1
		for len(sem) < cap(sem) {
			select {
			case sem <- struct{}{}:
				free++
			default:
			}
			if free == cap(sem) {
				break
			}
		}
		leases, err := w.client.Lease(ctx, free, w.opts.Poll)
		if err != nil {
			for i := 0; i < free; i++ {
				<-sem
			}
			if ctx.Err() != nil {
				return nil
			}
			w.opts.Logger.WarnContext(ctx, "lease request failed, retrying", "err", err)
			select {
			case <-time.After(w.opts.Poll):
			case <-ctx.Done():
				return nil
			}
			continue
		}
		for i := free; i > len(leases); i-- {
			<-sem
		}
		for _, l := range leases {
			wg.Add(1)
			go func(l campaign.Lease) {
				defer wg.Done()
				defer func() { <-sem }()
				w.runLease(ctx, l)
			}(l)
		}
	}
}

// runLease executes one leased cell, heartbeating while it runs. A
// worker canceled mid-cell completes nothing — the lease expires on the
// server and the cell goes to someone else.
func (w *Worker) runLease(ctx context.Context, l campaign.Lease) {
	// Rebuild the correlation identity on this side of the wire: the job
	// id travels in the task, the lease and cell ids are the lease's own.
	ctx = telemetry.WithJob(ctx, l.Task.Corr)
	ctx = telemetry.WithLease(ctx, l.ID)
	ctx = telemetry.WithCell(ctx, l.Task.Spec.String())
	log := w.opts.Logger
	log.InfoContext(ctx, "lease granted")
	cellCtx, cancel := context.WithCancel(ctx)

	hbEvery := time.Duration(l.TTLMillis) * time.Millisecond / 3
	if hbEvery < 50*time.Millisecond {
		hbEvery = 50 * time.Millisecond
	}
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-cellCtx.Done():
				return
			case <-t.C:
				alive, err := w.client.Heartbeat(cellCtx, l.ID)
				if err == nil && !alive {
					// The server gave the cell to someone else; stop
					// burning cycles on it.
					log.InfoContext(cellCtx, "lease revoked, aborting cell")
					cancel()
					return
				}
			}
		}
	}()
	defer func() {
		cancel()
		hbWG.Wait()
	}()

	spec := l.Task.Spec.Normalize()
	cfg := l.Task.Policy
	cfg.Workers = w.opts.CampaignWorkers
	cfg.MaxInjections = 0
	// Flatten the wire config onto the engine policy, defaulting the
	// checkpoint knob to the spec's own when the config leaves it unset.
	pol := cfg.Policy(spec.CheckpointPolicy())
	res, err := w.exec.Execute(cellCtx, campaign.Request{Spec: spec, Key: spec.Key(), Policy: pol})
	if cellCtx.Err() != nil {
		return // dying or revoked mid-cell: let the lease expire
	}
	errMsg := ""
	if err != nil {
		errMsg, res = err.Error(), nil
		w.failed.Add(1)
	}
	// Deliver even when the worker is shutting down — the result is
	// already paid for and the queue accepts it — under a short detached
	// context so a dead server can't wedge the exit.
	for attempt := 0; attempt < 3; attempt++ {
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		cerr := w.client.Complete(dctx, l.ID, res, errMsg)
		dcancel()
		if cerr == nil {
			if errMsg == "" {
				w.completed.Add(1)
				log.InfoContext(ctx, "cell completed", "injections", res.Injections)
			} else {
				log.WarnContext(ctx, "cell failed", "err", errMsg)
			}
			return
		}
		if errStatus(cerr) == http.StatusNotFound {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	log.WarnContext(ctx, "could not deliver result, letting the lease expire")
}
