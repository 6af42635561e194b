package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/campaign"
)

// FuzzRequestBodies drives the three body-carrying routes a client or
// worker can reach — POST /v1/jobs, /v1/workers/lease and
// /v1/workers/{lease}/complete — with arbitrary bytes, in that order,
// against a fresh server whose cells execute through a lease queue (so
// an accepted job never simulates in-process). Whatever the bytes, no
// handler may panic, every non-2xx answer must carry the
// {"error":{...}} envelope, a JSON value followed by anything but
// whitespace must answer 400, and the server must still shut down.
func FuzzRequestBodies(f *testing.F) {
	f.Add([]byte(`{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","injections":20,"seed":1}]}`),
		[]byte(`{"worker":"w1","max":1}`),
		[]byte(`{"result":{"Outcomes":[20,0,0,0],"Injections":20}}`))
	f.Add([]byte(`{"cells":[{"chip":"Mini AMD","benchmark":"scan","injections":5}],"policy":{"margin":0.1,"checkpoint":{"off":true}}}`),
		[]byte(`{"worker":"w2","max":4,"wait_ms":5}`),
		[]byte(`{"error":"boom"}`))
	f.Add([]byte(`{"cells":[]}`), []byte(`{}`), []byte(`{}`))
	f.Add([]byte(`{"cells":[{"chip":"nope"}],"policy":{"v":9}}`), []byte(`{"worker":""}`), []byte(`null`))
	f.Add([]byte(`{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","injections":20,"seed":1}]} trailing`),
		[]byte(`{"worker":"w3","max":1} trailing`), []byte(`{"error":"boom"} trailing`))
	f.Add([]byte(`{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","structure":"local-memory"}]}`),
		[]byte(`[1,2,3]`), []byte(`{"result":{"Outcomes":[1,2,3,4,5]}}`))
	f.Fuzz(func(t *testing.T, jobBody, leaseBody, completeBody []byte) {
		q := campaign.NewLeaseQueue(time.Minute)
		srv := NewServer(campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 4}))
		srv.ServeWorkers(q)

		postBody(t, srv, "/v1/jobs", jobBody)
		leaseID := "lease-unknown"
		if rec := postBody(t, srv, "/v1/workers/lease", leaseBody); rec.Code == http.StatusOK {
			var grant leaseResponse
			if json.Unmarshal(rec.Body.Bytes(), &grant) == nil && len(grant.Leases) > 0 {
				leaseID = grant.Leases[0].ID
			}
		}
		postBody(t, srv, "/v1/workers/"+leaseID+"/complete", completeBody)

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("server did not drain its jobs: %v", err)
		}
	})
}

// postBody sends one POST with the body straight into the server's handler
// and checks the error envelope of any non-2xx answer. The request
// context is short so a long-poll lease answers (with nothing) promptly.
func postBody(t *testing.T, srv *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if trailingData(body) && rec.Code != http.StatusBadRequest {
		t.Fatalf("POST %s with data after the JSON body answered %d, want 400", path, rec.Code)
	}
	if rec.Code >= 200 && rec.Code < 300 {
		return rec
	}
	var env struct {
		Error *errorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("POST %s answered %d without the error envelope: %q", path, rec.Code, rec.Body.Bytes())
	}
	return rec
}

// trailingData reports whether body is one JSON value followed by
// anything but whitespace.
func trailingData(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	_, err := dec.Token()
	return err != io.EOF
}
