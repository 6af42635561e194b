// Package client is the Go client of the fiserver HTTP API, shared by
// the CLI tools and the end-to-end tests: declarative experiment runs
// (streamed NDJSON progress + result), batch jobs, the deprecated
// figure endpoint, and scheduler statistics. It speaks exactly the wire
// forms of internal/service, so anything the server can compute a CLI
// can request with one call.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"time"

	"repro/internal/experiment"
)

// Client calls one fiserver.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// APIKey, when non-empty, is sent as "Authorization: Bearer <key>"
	// on every request — required against a server started with
	// -api-keys, ignored by one without.
	APIKey string
	// HTTPClient defaults to http.DefaultClient. Experiment and figure
	// streams can outlive any client timeout: prefer a context deadline.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// authorize stamps the API key onto req when one is configured.
func (c *Client) authorize(req *http.Request) {
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
}

// apiError is a non-2xx JSON error answer.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server status %d: %s", e.code, e.msg)
}

// StatusCode extracts the HTTP status behind err, or 0.
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.code
	}
	return 0
}

// errorFrom turns a non-2xx response into an error carrying the
// server's JSON error body. It understands both the unified envelope
// {"error":{"code","message","job_id"}} and the legacy flat
// {"error":"..."} shape, so one client binary works across server
// versions.
func errorFrom(resp *http.Response) error {
	var e struct {
		Error json.RawMessage `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	return &apiError{code: resp.StatusCode, msg: decodeErrorMessage(e.Error)}
}

// decodeErrorMessage extracts the human-readable message from either
// error-body shape.
func decodeErrorMessage(raw json.RawMessage) string {
	var msg string
	if json.Unmarshal(raw, &msg) == nil {
		return msg
	}
	var env struct {
		Message string `json:"message"`
	}
	if json.Unmarshal(raw, &env) == nil {
		return env.Message
	}
	return ""
}

// do sends one request with a JSON body (nil for none) and decodes the
// JSON answer into out (ignored when nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		return errorFrom(resp)
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

// Event is one NDJSON line of an experiment or figure stream.
type Event struct {
	Event     string `json:"event"`
	ID        string `json:"id,omitempty"`
	Name      string `json:"name,omitempty"`
	Chip      string `json:"chip,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Structure string `json:"structure,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	Fig       string `json:"fig,omitempty"`
	Error     string `json:"error,omitempty"`
	// Result is the final experiment result ("result" events of an
	// experiment stream).
	Result *experiment.Result `json:"result,omitempty"`
	// Figure is the final figure document of the deprecated figure
	// stream, left raw so callers pick the shape.
	Figure json.RawMessage `json:"figure,omitempty"`
}

// RunExperiment POSTs the spec to /v1/experiments and consumes the
// NDJSON stream: onEvent (when non-nil) sees every event including the
// final one, and the experiment result is returned. The server
// registers the run as a job; its id arrives in the first event.
func (c *Client) RunExperiment(ctx context.Context, spec experiment.Spec, onEvent func(Event)) (*experiment.Result, error) {
	buf, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/experiments", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.authorize(req)
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, errorFrom(resp)
	}
	var result *experiment.Result
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("client: bad stream line %q: %w", sc.Text(), err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
		switch ev.Event {
		case "error":
			return nil, fmt.Errorf("client: experiment failed: %s", ev.Error)
		case "result":
			result = ev.Result
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if result == nil {
		return nil, errors.New("client: stream ended without a result event")
	}
	return result, nil
}

// Figure runs the deprecated GET /v1/figure shim, returning the raw
// figure document. Query carries the endpoint's legacy parameters (n,
// seed, chips, bench, margin, confidence).
func (c *Client) Figure(ctx context.Context, fig int, query url.Values, onEvent func(Event)) (json.RawMessage, error) {
	q := url.Values{}
	for k, vs := range query {
		q[k] = vs
	}
	q.Set("fig", fmt.Sprint(fig))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/figure?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	c.authorize(req)
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, errorFrom(resp)
	}
	var figure json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("client: bad stream line %q: %w", sc.Text(), err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
		switch ev.Event {
		case "error":
			return nil, fmt.Errorf("client: figure failed: %s", ev.Error)
		case "result":
			figure = ev.Figure
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if figure == nil {
		return nil, errors.New("client: stream ended without a result event")
	}
	return figure, nil
}

// JobStatus is the GET /v1/jobs/{id} answer.
type JobStatus struct {
	ID    string          `json:"id"`
	Kind  string          `json:"kind"`
	State string          `json:"state"`
	Done  int             `json:"done"`
	Total int             `json:"total"`
	Error string          `json:"error"`
	Cells json.RawMessage `json:"cells"`
}

// Status fetches one job's progress.
func (c *Client) Status(ctx context.Context, jobID string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ExperimentResult fetches a finished experiment job's result from the
// job store (the stream already carried it; this retrieves it again
// after the fact).
func (c *Client) ExperimentResult(ctx context.Context, jobID string) (*experiment.Result, error) {
	var out struct {
		ID     string             `json:"id"`
		Result *experiment.Result `json:"result"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/result", nil, &out); err != nil {
		return nil, err
	}
	if out.Result == nil {
		return nil, fmt.Errorf("client: job %s carries no experiment result", jobID)
	}
	return out.Result, nil
}

// Cancel cancels a running job (or deletes a finished one from the
// server's retained set — DELETE is state-dependent on the server).
func (c *Client) Cancel(ctx context.Context, jobID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+jobID, nil, nil)
}

// JobSummary is one row of the GET /v1/jobs listing.
type JobSummary struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// Jobs lists the server's retained jobs, oldest first — how a client
// finds its jobs again after a server restart severed its streams.
func (c *Client) Jobs(ctx context.Context) ([]JobSummary, error) {
	var out struct {
		Jobs []JobSummary `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

const (
	// waitBaseDelay is WaitDone's polling cadence against a healthy
	// server, and the floor of its error backoff.
	waitBaseDelay = 50 * time.Millisecond
	// waitMaxDelay caps the error backoff so a long outage is probed a
	// few times a second at worst, not hammered at the poll cadence.
	waitMaxDelay = 2 * time.Second
)

// WaitDone polls a job until it leaves the running state, retrying
// transient failures until ctx ends: the reconnect half of
// restart-proof jobs. With a journaled server, a job whose stream died
// with one process can be awaited against the next; with a clustered
// server, a standby's 503 is retried until a peer takes ownership.
// While the server is away the poll interval backs off exponentially
// with jitter (so a reconnecting fleet of clients does not stampede the
// reborn server) and resets once an answer gets through.
func (c *Client) WaitDone(ctx context.Context, jobID string) (*JobStatus, error) {
	delay := waitBaseDelay
	for {
		st, err := c.Status(ctx, jobID)
		if err != nil {
			// Server-side answers (404, 409, ...) are authoritative —
			// except 503, which a cluster standby returns while a peer
			// holds (or is inheriting) the job store. Transport errors
			// mean the server is away. Both heal with time.
			if code := StatusCode(err); code != 0 && code != http.StatusServiceUnavailable {
				return nil, err
			}
			// Full jitter over [delay/2, delay): desynchronizes clients
			// that all lost the same server at the same instant.
			wait := delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
			if err := sleepCtx(ctx, wait); err != nil {
				return nil, err
			}
			if delay *= 2; delay > waitMaxDelay {
				delay = waitMaxDelay
			}
			continue
		}
		delay = waitBaseDelay
		if st.State != "running" {
			return st, nil
		}
		if err := sleepCtx(ctx, waitBaseDelay); err != nil {
			return nil, err
		}
	}
}

// sleepCtx waits d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats fetches the scheduler counters.
func (c *Client) Stats(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Healthy probes /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
