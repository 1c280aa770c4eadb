package store

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/service"
)

// TestRecoveryTerminalSweepPointsDone pins points_done of sweeps restored
// terminal from the journal: a point counts as done iff its content key has
// a journaled result. A canceled sweep therefore reports only the points it
// completed before the cancel (not its whole grid), and a done sweep still
// reports every point.
func TestRecoveryTerminalSweepPointsDone(t *testing.T) {
	dir := testDir(t)
	fs, err := Open(dir, Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Seed 11 runs to completion; seed 12 completes its first three points
	// (alpha 0, 1/39, 2/39) and blocks on the fourth; seed 13 blocks on its
	// first point. Blocked points wait for their cancellation.
	run := func(ctx context.Context, spec service.JobSpec, c *montecarlo.Counter) (*service.RunResult, error) {
		alpha := spec.Sweep[0]
		if spec.Seed == 13 || (spec.Seed == 12 && alpha > 0.06) {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		c.Add(int64(spec.N))
		return &service.RunResult{
			Estimate: service.Estimate{P: 1e-7 * (1 + alpha), CI95: 1e-9, N: spec.N, Sims: int64(spec.N)},
			Cost:     service.CostSplit{Total: int64(spec.N)},
		}, nil
	}
	svc := service.New(service.Config{Workers: 1, QueueCapacity: 64, Store: fs, RunFunc: run})

	submit := func(seed int64) *service.Sweep {
		spec := sweepCrashSpec()
		spec.Base.Seed = seed
		sw, err := svc.SubmitSweep(spec)
		if err != nil {
			t.Fatalf("submit sweep seed %d: %v", seed, err)
		}
		return sw
	}
	waitSweep := func(sw *service.Sweep) {
		t.Helper()
		select {
		case <-sw.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("sweep %s not terminal within 10s (state %q)", sw.ID, sw.State())
		}
	}
	waitPoints := func(sw *service.Sweep, n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for sw.PointsDone() < n {
			if time.Now().After(deadline) {
				t.Fatalf("sweep %s reached %d points, want %d", sw.ID, sw.PointsDone(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	done := submit(11)
	waitSweep(done)
	if done.State() != service.StateDone {
		t.Fatalf("seed-11 sweep ended %q", done.State())
	}
	partial := submit(12)
	waitPoints(partial, 3)
	none := submit(13)
	for _, sw := range []*service.Sweep{partial, none} {
		if _, changed, err := svc.CancelSweep(sw.ID); err != nil || !changed {
			t.Fatalf("cancel %s: changed=%v err=%v", sw.ID, changed, err)
		}
		waitSweep(sw)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fs.Close()

	fs, err = Open(dir, Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fs.Close()
	svc2 := service.New(service.Config{Workers: 1, QueueCapacity: 64, Store: fs, RunFunc: run})
	defer svc2.Drain(context.Background())
	srv := httptest.NewServer(service.NewServer(svc2))
	defer srv.Close()

	for _, c := range []struct {
		id    string
		state service.State
		want  int
	}{
		{done.ID, service.StateDone, 40},
		{partial.ID, service.StateCanceled, 3},
		{none.ID, service.StateCanceled, 0},
	} {
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + c.id)
		if err != nil {
			t.Fatalf("GET %s: %v", c.id, err)
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, read err %v", c.id, resp.StatusCode, rerr)
		}
		var v service.SweepView
		var body map[string]json.RawMessage
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode sweep view %s: %v", c.id, err)
		}
		_ = json.Unmarshal(raw, &body)
		if v.State != c.state || v.NumPoints != 40 || v.PointsDone != c.want {
			t.Errorf("restored sweep %s: state %q, points_done %d/%d; want %q, %d/40",
				c.id, v.State, v.PointsDone, v.NumPoints, c.state, c.want)
		}
		// A restored sweep carries no live per-point status.
		if _, ok := body["points"]; ok {
			t.Errorf("restored sweep %s body carries a points array", c.id)
		}
	}
}
