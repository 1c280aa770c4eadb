package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecripse/internal/cluster"
	"ecripse/internal/obsv"
	"ecripse/internal/service"
	"ecripse/internal/store"
)

// topology is the service stack both service workloads drive: a dedicated
// cluster.Router in front of two shards, each a service.Service with an
// fsync'd store journal behind its own HTTP listener, and each wired to its
// peer's result cache through the RemoteCache hook (the embedded -peers
// read-through). Everything runs in this process on loopback sockets.
type topology struct {
	tr     *tracer
	shards []*shard
	router *cluster.Router
	rsrv   *http.Server
	cl     *client
	serve  sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

type shard struct {
	name string
	dir  string
	svc  *service.Service
	st   *store.FileStore
	api  http.Handler
	srv  *http.Server
	url  string
	peer atomic.Pointer[cluster.Router] // RemoteCache hook, set once both shards listen
}

// shardWorkers is each shard's worker pool: at least the client count of
// service_mixed, so the two clients never queue behind each other.
const shardWorkers = 2

var quietLog = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

func startTopology(dir string, tr *tracer) (*topology, error) {
	t := &topology{tr: tr}
	names := []string{"s1", "s2"}
	for _, name := range names {
		sh, err := t.startShard(name, filepath.Join(dir, name))
		if err != nil {
			_ = t.close()
			return nil, err
		}
		t.shards = append(t.shards, sh)
	}
	var shards []cluster.Shard
	for i, sh := range t.shards {
		shards = append(shards, cluster.Shard{Name: sh.name, URL: sh.url})
		peer := t.shards[1-i]
		hook, err := cluster.NewRouter(cluster.Config{
			Shards:        []cluster.Shard{{Name: peer.name, URL: peer.url}, {Name: sh.name, Local: sh.api}},
			ProbeInterval: -1,
			Logger:        quietLog,
		})
		if err != nil {
			_ = t.close()
			return nil, err
		}
		sh.peer.Store(hook)
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: shards, Logger: quietLog})
	if err != nil {
		_ = t.close()
		return nil, err
	}
	rt.Start()
	t.router = rt
	var h http.Handler = rt
	if tr != nil {
		h = timedHandler{next: rt, tr: tr, router: true}
	}
	url, srv, err := t.listen(h)
	if err != nil {
		_ = t.close()
		return nil, err
	}
	t.rsrv = srv
	t.cl = newClient(url)
	return t, nil
}

func (t *topology) startShard(name, dir string) (*shard, error) {
	st, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	sh := &shard{name: name, dir: dir, st: st}
	var journal service.Store = st
	if t.tr != nil {
		journal = timedStore{Store: st, tr: t.tr}
	}
	sh.svc = service.New(service.Config{
		Workers:           shardWorkers,
		MaxJobParallelism: runtime.GOMAXPROCS(0),
		Store:             journal,
		NodeID:            name,
		Logger:            quietLog,
		RemoteCache: func(key string) (json.RawMessage, bool) {
			if hook := sh.peer.Load(); hook != nil {
				return hook.PeerCacheLookup(context.Background(), key)
			}
			return nil, false
		},
	})
	sh.api = service.NewServer(sh.svc)
	var h http.Handler = sh.api
	if t.tr != nil {
		h = timedHandler{next: sh.api, tr: t.tr}
	}
	sh.url, sh.srv, err = t.listen(h)
	if err != nil {
		_ = sh.svc.Drain(context.Background())
		_ = st.Close()
		return nil, err
	}
	return sh, nil
}

// listen serves h on a fresh loopback port.
func (t *topology) listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	t.serve.Add(1)
	go func() {
		defer t.serve.Done()
		// Serve returns http.ErrServerClosed once close runs; any other
		// failure shows up as failed client requests.
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), srv, nil
}

// close stops the router, the listeners and the shards (draining their
// pools and closing their journals) and waits for every server goroutine.
func (t *topology) close() error {
	t.closeOnce.Do(func() {
		var errs []error
		if t.router != nil {
			t.router.Close()
		}
		if t.rsrv != nil {
			errs = append(errs, t.rsrv.Close())
		}
		for _, sh := range t.shards {
			if hook := sh.peer.Load(); hook != nil {
				hook.Close()
			}
			errs = append(errs, sh.srv.Close())
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			errs = append(errs, sh.svc.Drain(ctx))
			cancel()
			errs = append(errs, sh.st.Close())
		}
		t.serve.Wait()
		if t.cl != nil {
			t.cl.hc.CloseIdleConnections()
		}
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		t.closeErr = errors.Join(errs...)
	})
	return t.closeErr
}

// counted runs the timed ops and, when traced, records the shards' cache
// and journal counter deltas across them.
func (t *topology) counted(ops func()) {
	if t.tr == nil {
		ops()
		return
	}
	h0, m0, a0 := t.snapshot()
	ops()
	h1, m1, a1 := t.snapshot()
	t.tr.mu.Lock()
	t.tr.cacheHits, t.tr.cacheMisses, t.tr.appends = h1-h0, m1-m0, a1-a0
	t.tr.mu.Unlock()
}

// snapshot sums the shards' service counters that the ledger reads.
func (t *topology) snapshot() (hits, misses, appends float64) {
	for _, sh := range t.shards {
		m := sh.svc.Snapshot()
		hits += float64(m.CacheHits)
		misses += float64(m.CacheMisses)
		if m.Store != nil {
			appends += float64(m.Store.Appends)
		}
	}
	return
}

// ledger completes a traced pass after the timed phase: it fetches the
// given job or sweep traces, shuts the topology down and times a replay of
// each shard's journal.
func (t *topology) ledger(tracePaths []string) error {
	for _, p := range tracePaths {
		if err := t.fetchTrace(p); err != nil {
			return err
		}
	}
	if err := t.close(); err != nil {
		return err
	}
	return t.recoverJournals()
}

// recoverJournals reopens each closed shard journal and times the replay.
func (t *topology) recoverJournals() error {
	for _, sh := range t.shards {
		t0 := time.Now()
		st, err := store.Open(sh.dir, store.Options{Logf: func(string, ...any) {}})
		if err != nil {
			return err
		}
		st.Recover()
		d := ms(time.Since(t0))
		if err := st.Close(); err != nil {
			return err
		}
		t.tr.mu.Lock()
		t.tr.recoverMS = append(t.tr.recoverMS, d)
		t.tr.mu.Unlock()
	}
	return nil
}

// fetchTrace reads a job or sweep trace through the router into the ledger.
func (t *topology) fetchTrace(path string) error {
	status, body, err := t.cl.call(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	var tv struct {
		Spans []obsv.SpanView `json:"spans"`
	}
	if err := json.Unmarshal(body, &tv); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	t.tr.addSpans(tv.Spans)
	return nil
}

// client is a benchmark client of the router's HTTP API. Every request
// carries a fresh traceparent, so the ledger can pair a routed request with
// the shard request it caused.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) request(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(obsv.TraceparentHeader, obsv.NewTraceContext().Traceparent())
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.hc.Do(req)
}

// call issues one request and returns the status and the whole body.
func (c *client) call(method, path string, body []byte) (int, []byte, error) {
	resp, err := c.request(method, path, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// waitDone follows an SSE stream until its "done" event and returns that
// event's data.
func (c *client) waitDone(path string) ([]byte, error) {
	resp, err := c.request(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("GET %s: stream ended before done: %w", path, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			return []byte(strings.TrimPrefix(line, "data: ")), nil
		}
	}
}

// compact strips insignificant JSON whitespace (payload comparisons).
func compact(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}
