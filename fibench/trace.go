package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/finject"
)

// span is one timed call across a layer boundary. Times are host time
// relative to the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Key    string        `json:"key,omitempty"` // cell key, job id or lease id
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	off   atomic.Bool // pauses recording while wrappers stay installed
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// recording reports whether spans are being kept.
func (t *tracer) recording() bool { return t != nil && !t.off.Load() }

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name, layer, key string, parent int) int {
	if !t.recording() {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Key: key, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval as a span.
func (t *tracer) add(name, layer, key string, parent int, start, end time.Time) {
	if !t.recording() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Key: key,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durations returns the durations of the spans named name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// attribute splits the wall-clock interval of root among layers: every
// instant goes, in equal parts, to the spans open at that instant that
// have no open child, and each such span's share goes to its layer. The
// root's own share is time no layer boundary was crossed ("unaccounted").
// The returned shares therefore sum to 1.
func attribute(spans []span, root int) map[string]float64 {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rs, ok := byID[root]
	if !ok || rs.dur() <= 0 {
		return nil
	}
	// Keep only the root's descendants, clipped to its interval.
	inTree := func(s span) bool {
		for p := s.ID; p != 0; p = byID[p].Parent {
			if p == root {
				return true
			}
		}
		return false
	}
	type edge struct {
		at    time.Duration
		id    int
		start bool
	}
	var edges []edge
	for _, s := range spans {
		if !inTree(s) {
			continue
		}
		st, en := max(s.Start, rs.Start), min(s.End, rs.End)
		if en <= st {
			continue
		}
		edges = append(edges, edge{st, s.ID, true}, edge{en, s.ID, false})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	open := map[int]bool{}
	self := map[string]time.Duration{}
	last := rs.Start
	for _, e := range edges {
		if dt := e.at - last; dt > 0 {
			hasKid := map[int]bool{}
			for id := range open {
				hasKid[byID[id].Parent] = true
			}
			var leaves []int
			for id := range open {
				if !hasKid[id] {
					leaves = append(leaves, id)
				}
			}
			for _, id := range leaves {
				self[layerOf(byID[id], root)] += dt / time.Duration(len(leaves))
			}
			last = e.at
		}
		if e.start {
			open[e.id] = true
		} else {
			delete(open, e.id)
		}
	}
	shares := make(map[string]float64, len(self))
	for layer, d := range self {
		shares[layer] = d.Seconds() / rs.dur().Seconds()
	}
	return shares
}

// layerOf names the layer a span's self time is charged to.
func layerOf(s span, root int) string {
	if s.ID == root {
		return "unaccounted"
	}
	return s.Layer
}

// spanKey carries the enclosing span id through a context, so spans
// opened behind an interface boundary find their parent.
type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// tracedExecutor wraps a campaign.Executor with one span per executed
// cell.
type tracedExecutor struct {
	inner campaign.Executor
	tr    *tracer
	name  string
}

func (e *tracedExecutor) Execute(ctx context.Context, req campaign.Request) (*finject.Result, error) {
	id := e.tr.begin(e.name, "finject", string(req.Key), spanFrom(ctx))
	defer e.tr.end(id)
	return e.inner.Execute(ctx, req)
}

// GoldenRuns forwards the local executor's golden counter so the
// scheduler's stats are unchanged by the wrapper.
func (e *tracedExecutor) GoldenRuns() int64 {
	if g, ok := e.inner.(interface{ GoldenRuns() int64 }); ok {
		return g.GoldenRuns()
	}
	return 0
}

// tracedStore wraps a campaign.Store with one span per Get and Put. Store
// calls carry no context, so the parent is whatever run span the workload
// set last.
type tracedStore struct {
	inner  campaign.Store
	tr     *tracer
	parent func() int
}

func (s *tracedStore) Get(key campaign.CellKey) (*finject.Result, bool, error) {
	id := s.tr.begin("campaign.store_get", "campaign", string(key), s.parent())
	defer s.tr.end(id)
	return s.inner.Get(key)
}

func (s *tracedStore) Put(key campaign.CellKey, res *finject.Result) error {
	id := s.tr.begin("campaign.store_put", "campaign", string(key), s.parent())
	defer s.tr.end(id)
	return s.inner.Put(key, res)
}

func (s *tracedStore) Len() int { return s.inner.Len() }

// tracedTransport records one span per HTTP request, named after the
// route it hits, from sending the request to receiving the response
// headers (a streamed body is read after the span ends).
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, key := routeOf(req.URL.Path)
	id := t.tr.begin(name, "service", key, spanFrom(req.Context()))
	defer t.tr.end(id)
	return t.inner.RoundTrip(req)
}

// routeOf maps a request path onto a span name and the lease or job id
// it names.
func routeOf(path string) (name, key string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case path == "/v1/workers/lease":
		return "service.lease", ""
	case len(parts) == 4 && parts[1] == "workers":
		return "service." + parts[3], parts[2]
	case path == "/v1/experiments":
		return "service.submit", ""
	case path == "/healthz":
		return "service.healthz", ""
	}
	return "service.other", ""
}
