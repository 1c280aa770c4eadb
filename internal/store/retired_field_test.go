package store

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecripse/internal/service"
)

// TestRecoveryJournaledAdaptiveGridJobs replays a hand-written journal from
// a release that still had the tiered-fidelity indicator: both journaled
// specs carry the since-removed "adaptive_grid" field, and both keys are
// the content addresses that release computed for them. Recovery must keep
// serving the done job's payload byte for byte under its journaled key,
// must run the queued job — now in exact mode — to completion under its
// journaled key, and new submits naming the field must be refused.
func TestRecoveryJournaledAdaptiveGridJobs(t *testing.T) {
	const (
		doneSpec  = `{"vdd":0.7,"mode":"read","estimator":"ecripse","seed":3,"n":2000,"adaptive_grid":true}`
		doneKey   = "62acf53637bdd222c1b1947b118f46df1c0a490e89fe0671f8e481a8b1d43bab"
		donePay   = `{"estimate":{"p":1.5e-05,"ci95":2.1e-06,"rel_err":0.07,"n":2000,"sims":1409},"cost":{"init":600,"warmup":400,"stage1":200,"stage2":209,"classified":5391,"total":1409,"coarse":1209,"escalated":240}}`
		queueSpec = `{"vdd":0.7,"mode":"read","estimator":"ecripse","seed":7,"n":400,"adaptive_grid":true}`
		queueKey  = "1314711571a0d4b3faed7f2851ce8eec821c36aaecc1b2938f30e419a142b1c9"
	)
	dir := testDir(t)
	fs1, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for _, err := range []error{
		fs1.AppendSubmit("j000001", json.RawMessage(doneSpec), doneKey, "", false, at),
		fs1.AppendState("j000001", service.StateRunning, "", at),
		fs1.AppendResult(doneKey, json.RawMessage(donePay)),
		fs1.AppendState("j000001", service.StateDone, "", at),
		fs1.AppendSubmit("j000002", json.RawMessage(queueSpec), queueKey, "", false, at),
	} {
		if err != nil {
			t.Fatalf("write journal: %v", err)
		}
	}
	if err := fs1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	fs2, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fs2.Close()
	svc := service.New(service.Config{Workers: 1, QueueCapacity: 4, Store: fs2})
	defer svc.Drain(context.Background())

	done, err := svc.Get("j000001")
	if err != nil {
		t.Fatalf("done job lost: %v", err)
	}
	if done.State() != service.StateDone || done.Key != doneKey {
		t.Fatalf("done job restored as state %q key %s", done.State(), done.Key)
	}
	if !bytes.Equal(done.Result(), []byte(donePay)) {
		t.Fatalf("done payload changed:\ngot  %s\nwant %s", done.Result(), donePay)
	}
	if cached, ok := svc.CachedResult(doneKey); !ok || !bytes.Equal(cached, []byte(donePay)) {
		t.Fatalf("journaled key does not serve the journaled payload: %s", cached)
	}

	queued, err := svc.Get("j000002")
	if err != nil {
		t.Fatalf("queued job lost: %v", err)
	}
	waitTerminal(t, queued, 60*time.Second)
	if queued.State() != service.StateDone || queued.Key != queueKey {
		t.Fatalf("queued job finished as state %q key %s", queued.State(), queued.Key)
	}
	if cached, ok := svc.CachedResult(queueKey); !ok || !bytes.Equal(cached, queued.Result()) {
		t.Fatal("replayed result is not cached under the journaled key")
	}
	// The replay ran in exact mode: the same spec without the field (a new
	// content key) computes the identical payload.
	exact, err := svc.Submit(service.JobSpec{Seed: 7, N: 400})
	if err != nil {
		t.Fatalf("submit exact-mode twin: %v", err)
	}
	waitTerminal(t, exact, 60*time.Second)
	if exact.Key == queueKey || !bytes.Equal(exact.Result(), queued.Result()) {
		t.Fatalf("replayed job did not run in exact mode (key %s)", exact.Key)
	}

	srv := httptest.NewServer(service.NewServer(svc))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/j000001")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"result":`+donePay)) {
		t.Fatalf("GET done job: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"n":400,"seed":7,"adaptive_grid":true}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("adaptive_grid")) {
		t.Fatalf("submit with adaptive_grid: %d %s, want 400 naming the field", resp.StatusCode, body)
	}
}
