package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSubmitBody drives arbitrary request bodies into the three submit
// paths (POST /v1/jobs, /v1/jobs:batch, /v1/sweeps) through the full HTTP
// handler. Whatever the bytes, the server must not panic and must answer
// with one of the submit statuses: accepted (200/202), rejected as
// malformed (400) or oversized (413), or refused by back-pressure (429/503).
func FuzzSubmitBody(f *testing.F) {
	paths := []string{"/v1/jobs", "/v1/jobs:batch", "/v1/sweeps"}
	for i, body := range []string{
		`{"seed":7,"n":100}`,
		`[{"seed":1},{"seed":2,"estimator":"naive"}]`,
		`{"base":{"seed":3},"alpha":{"values":[0.1,0.2]},"warm_start":true}`,
		`{"base":{"seed":3},"alpha":{"from":0,"to":1,"steps":4}}`,
		`{"seed":"x"}`,
		`{"adaptive_grid":true}`,
		`[]`,
		`{"vdd":1e999}`,
		`{"estimator":"` + strings.Repeat("x", 600) + `"}`,
		``,
		`{`,
		`null`,
	} {
		for p := range paths {
			f.Add(uint8(p+i), []byte(body))
		}
	}

	svc := New(Config{Workers: 1, QueueCapacity: 8, CacheCapacity: 8, RunFunc: instantRun})
	f.Cleanup(func() { _ = svc.Drain(context.Background()) })
	api := NewServer(svc)
	api.MaxBodyBytes = 512

	f.Fuzz(func(t *testing.T, p uint8, body []byte) {
		path := paths[int(p)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %s %q: status %d (%s)", path, body, rec.Code, rec.Body.Bytes())
		}
	})
}
