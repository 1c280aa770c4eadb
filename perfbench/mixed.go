package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"ecripse"
	"ecripse/internal/service"
)

// service_mixed: two HTTP clients through the router, each a closed loop
// over its own fixed list. The reader resubmits specs of a hot set computed
// in setup (inline cache hits) and GETs the hot jobs; the writer submits
// new small cold jobs and follows each to its SSE "done" event.

const (
	mixedHot = 8    // hot-set specs computed in setup
	mixedN   = 2000 // importance samples of a small job
	mixedM   = 5    // RTN draws per sample of a small job
	// hitShare is the share of reads that resubmit a hot spec; the rest GET
	// a hot job. A hit journals its submit with an fsync, and fsync latency
	// on a shared disk swings with other tenants' I/O far more than the CPU
	// paths do, so hits are kept to a quarter of the reads.
	hitShare = 0.25
	// Op lengths on the reference host that size the two lists.
	mixedWriteOpS = 0.2
	mixedReadOpS  = 0.00075
)

type mixedRead struct {
	hit bool // resubmit the spec (cache hit) rather than GET the job
	hot int  // index into the hot set
}

type mixedPlan struct {
	hot    []int64 // hot-set seeds
	writes []int64 // cold-job seeds, disjoint from the hot set
	reads  []mixedRead
}

func (p *mixedPlan) Ops() int { return len(p.writes) + len(p.reads) }

func (p *mixedPlan) Digest() string {
	return digest("service_mixed", mixedN, mixedM, p.hot, p.writes, p.reads)
}

func planMixed(seed int64, seconds int) plan {
	return newMixedPlan(seed, opsFor(seconds, mixedWriteOpS), opsFor(seconds, mixedReadOpS))
}

func newMixedPlan(seed int64, writes, reads int) *mixedPlan {
	rng := rand.New(rand.NewSource(seed))
	// Every job seed is distinct, so each write is a cache miss.
	seen := map[int64]bool{}
	fresh := func() int64 {
		for {
			s := freshSeed(rng)
			if !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
	p := &mixedPlan{}
	for i := 0; i < mixedHot; i++ {
		p.hot = append(p.hot, fresh())
	}
	for i := 0; i < writes; i++ {
		p.writes = append(p.writes, fresh())
	}
	for i := 0; i < reads; i++ {
		p.reads = append(p.reads, mixedRead{hit: rng.Float64() < hitShare, hot: rng.Intn(mixedHot)})
	}
	return p
}

func mixedSpec(seed int64) []byte {
	b, _ := json.Marshal(service.JobSpec{Vdd: ecripse.VddLow, RTN: true, Alpha: refAlpha, Seed: seed, N: mixedN, M: mixedM})
	return b
}

// hotJob is one hot-set entry: the job that computed it and its payload.
type hotJob struct {
	spec   []byte
	id     string
	result []byte // compacted result payload of the first computation
}

type mixedSys struct {
	*topology
	p      *mixedPlan
	hot    []hotJob
	mu     sync.Mutex
	writes []string // completed write job IDs, for the traced ledger
}

func startMixed(pl plan, dir string, tr *tracer) (system, error) {
	t, err := startTopology(dir, tr)
	if err != nil {
		return nil, err
	}
	s := &mixedSys{topology: t, p: pl.(*mixedPlan)}
	if err := s.warm(); err != nil {
		_ = t.close()
		return nil, err
	}
	return s, nil
}

// warm computes the hot set and runs the warm-up op.
func (s *mixedSys) warm() error {
	for _, seed := range s.p.hot {
		spec := mixedSpec(seed)
		status, body, err := s.cl.call(http.MethodPost, "/v1/jobs", spec)
		if err != nil {
			return err
		}
		var v service.View
		if status != http.StatusAccepted || json.Unmarshal(body, &v) != nil {
			return fmt.Errorf("hot-set submit: status %d: %s", status, body)
		}
		s.hot = append(s.hot, hotJob{spec: spec, id: v.ID})
	}
	for i := range s.hot {
		v, err := s.follow(s.hot[i].id)
		if err != nil {
			return fmt.Errorf("hot-set job: %w", err)
		}
		s.hot[i].result = compact(v.Result)
	}
	rec := &recorder{}
	if err := s.write(warmUpSeed, rec); err != nil {
		return fmt.Errorf("warm-up write: %w", err)
	}
	for _, hit := range []bool{true, false} {
		if err := s.read(mixedRead{hit: hit}, rec); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
	}
	s.writes = nil
	return nil
}

// follow waits for a job's SSE "done" event and checks that it finished
// with a finite estimate.
func (s *mixedSys) follow(id string) (service.View, error) {
	var v service.View
	done, err := s.cl.waitDone("/v1/jobs/" + id + "/events")
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(done, &v); err != nil {
		return v, err
	}
	if v.State != service.StateDone {
		return v, fmt.Errorf("job %s: state %q (error %q)", id, v.State, v.Error)
	}
	var rr service.RunResult
	if err := json.Unmarshal(v.Result, &rr); err != nil {
		return v, fmt.Errorf("job %s result: %w", id, err)
	}
	if p, ci := rr.Estimate.P, rr.Estimate.CI95; !finite(p) || !finite(ci) || p <= 0 {
		return v, fmt.Errorf("job %s: estimate not finite: P=%v CI95=%v", id, p, ci)
	}
	return v, nil
}

// write is one writer op: a new cold job, followed to completion.
func (s *mixedSys) write(seed int64, rec *recorder) error {
	start := time.Now()
	status, body, err := s.cl.call(http.MethodPost, "/v1/jobs", mixedSpec(seed))
	if err != nil {
		return err
	}
	var sub service.View
	if status != http.StatusAccepted || json.Unmarshal(body, &sub) != nil {
		return fmt.Errorf("submit: status %d, want 202: %s", status, body)
	}
	v, err := s.follow(sub.ID)
	if err != nil {
		return err
	}
	rec.latency(time.Since(start))
	var rr service.RunResult
	if err := json.Unmarshal(v.Result, &rr); err != nil {
		return err
	}
	rec.mu.Lock()
	rec.cost.addSplit(rr.Cost)
	rec.mu.Unlock()
	s.mu.Lock()
	s.writes = append(s.writes, sub.ID)
	s.mu.Unlock()
	return rec.estimate(refAlpha, rr.Estimate.P, rr.Estimate.CI95, rr.Cost.Total)
}

// read is one reader op: a cache-hit resubmit or a GET of a hot job, both
// answered from stored state and checked byte for byte against the first
// computation.
func (s *mixedSys) read(r mixedRead, rec *recorder) error {
	h := s.hot[r.hot]
	start := time.Now()
	var status int
	var body []byte
	var err error
	if r.hit {
		status, body, err = s.cl.call(http.MethodPost, "/v1/jobs", h.spec)
	} else {
		status, body, err = s.cl.call(http.MethodGet, "/v1/jobs/"+h.id, nil)
	}
	if err != nil {
		return err
	}
	rec.read(time.Since(start))
	var v service.View
	if status != http.StatusOK || json.Unmarshal(body, &v) != nil {
		return fmt.Errorf("status %d, want 200: %s", status, body)
	}
	if v.State != service.StateDone || (r.hit && !v.Cached) {
		return fmt.Errorf("job %s: state %q cached %v", v.ID, v.State, v.Cached)
	}
	if !bytes.Equal(compact(v.Result), h.result) {
		return fmt.Errorf("job %s: payload differs from the first computation of its key", v.ID)
	}
	return nil
}

// run drives both clients over their lists. Throughput counts only the ops
// each client completed while the other was still running: whichever list
// ends first leaves the other client alone and faster, and how long that
// tail lasts varies with the host, so counting it would make the figure
// depend on how the two clients happened to line up.
func (s *mixedSys) run(rec *recorder) error {
	s.counted(func() {
		var writesDone, readsDone []time.Duration // completion offsets
		t0 := time.Now()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i, seed := range s.p.writes {
				rec.op(fmt.Sprintf("write %d (seed %d)", i, seed), func() error { return s.write(seed, rec) })
				writesDone = append(writesDone, time.Since(t0))
			}
		}()
		go func() {
			defer wg.Done()
			for i, r := range s.p.reads {
				rec.op(fmt.Sprintf("read %d (hit=%v hot=%d)", i, r.hit, r.hot), func() error { return s.read(r, rec) })
				readsDone = append(readsDone, time.Since(t0))
			}
		}()
		wg.Wait()
		both := min(writesDone[len(writesDone)-1], readsDone[len(readsDone)-1])
		rec.clientDone(doneBy(writesDone, both), both)
		rec.clientDone(doneBy(readsDone, both), both)
	})
	return nil
}

// doneBy counts the completion offsets (ascending) that are at most t.
func doneBy(offsets []time.Duration, t time.Duration) int {
	return sort.Search(len(offsets), func(i int) bool { return offsets[i] > t })
}

func (s *mixedSys) collect() error {
	var paths []string
	for _, id := range s.writes {
		paths = append(paths, "/v1/jobs/"+id+"/trace")
	}
	return s.ledger(paths)
}
