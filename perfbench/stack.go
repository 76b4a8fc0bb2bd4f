package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hpas"
	hpasclient "hpas/client"
	"hpas/internal/admission"
	"hpas/internal/shard"
	"hpas/serve"
)

// Detector training as hpas-serve does it by default: CoMD, all six
// diagnosis classes, 3 reps, window 20 s with 5 s warmup, seed 31.
const (
	trainWindow = 20.0
	trainWarmup = 5.0
	trainSeed   = 31
	shardCount  = 2
)

// train fits the detector, timing dataset generation and the model fit
// separately.
func train(ctx context.Context) (det *hpas.Detector, dataset, fit time.Duration, err error) {
	start := time.Now()
	ds, err := hpas.GenerateDatasetContext(ctx, hpas.DatasetConfig{
		Apps:   []string{"CoMD"},
		Reps:   3,
		Window: trainWindow,
		Warmup: trainWarmup,
		Seed:   trainSeed,
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("training dataset: %w", err)
	}
	mid := time.Now()
	det, err = hpas.TrainDetector(ds, trainWindow-trainWarmup, trainSeed)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("training detector: %w", err)
	}
	return det, mid.Sub(start), time.Since(mid), nil
}

// shardProc is one hpas-serve shard hosted in the benchmark process.
type shardProc struct {
	name  string
	url   string
	dir   string
	mgr   *hpas.StreamManager
	store hpas.StreamStore
	srv   *http.Server
}

// stack is the measured service: a shard.Router over loopback HTTP in
// front of two journaled serve shards, each a one-worker manager.
type stack struct {
	det    *hpas.Detector
	tr     *tracer // nil when untraced
	shards []*shardProc
	router *shard.Router
	rsrv   *http.Server
	url    string

	transport *http.Transport
	hc        *http.Client
	counter   *statusCounter
	wg        sync.WaitGroup
}

// statusCounter counts the overload answers (429, 503) the benchmark's
// own clients receive; the client retries them, so they would
// otherwise only show as latency.
type statusCounter struct {
	next http.RoundTripper
	mu   sync.Mutex
	shed int
}

func (c *statusCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(r)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		c.mu.Lock()
		c.shed++
		c.mu.Unlock()
	}
	return resp, err
}

func (c *statusCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shed
}

// newTransport mirrors hpasclient's shared default transport (pooled
// idle connections, 64 KiB socket buffers) so the benchmark can close
// its connections on teardown.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.ReadBufferSize = 64 << 10
	t.WriteBufferSize = 64 << 10
	return t
}

// serveOn serves h on a fresh loopback listener and returns its URL.
func (s *stack) serveOn(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// startStack starts the shards and the router; shard names start with
// prefix so several stacks in one run stay apart in traces. seed
// derives the router's per-shard client seeds. With tr non-nil every
// layer boundary is wrapped in a recording decorator.
func startStack(dir, prefix string, det *hpas.Detector, tr *tracer, seed func(i int) int64) (*stack, error) {
	s := &stack{det: det, tr: tr, transport: newTransport()}
	s.counter = &statusCounter{next: s.transport}
	s.hc = &http.Client{Transport: s.counter}
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	logf := func(string, ...any) {}
	var members []shard.Member
	for i := 0; i < shardCount; i++ {
		sp := &shardProc{name: fmt.Sprintf("%ss%d", prefix, i), dir: filepath.Join(dir, fmt.Sprintf("s%d", i))}
		s.shards = append(s.shards, sp)
		store, recovered := serve.OpenJournal(sp.dir, logf)
		if store == nil {
			return fail(fmt.Errorf("shard %s: journal in %s did not open", sp.name, sp.dir))
		}
		sp.store = store
		shardDet := det
		if tr != nil {
			spy := newStoreSpy(sp.name, store, tr)
			store = spy
			cur := func() string { return spy.req(spy.running.Load().(string)) }
			var err error
			if shardDet, _, err = spyDetector(det, tr, cur); err != nil {
				return fail(err)
			}
		}
		sp.mgr = hpas.NewStreamManager(hpas.StreamConfig{Workers: 1, Queue: 16, Store: store})
		if err := sp.mgr.Reopen(recovered); err != nil {
			return fail(fmt.Errorf("shard %s: reopen: %w", sp.name, err))
		}
		h := serve.New(sp.mgr, shardDet, serve.Config{Admission: admission.Options{}}).Handler()
		var err error
		if sp.srv, sp.url, err = s.serveOn(h); err != nil {
			return fail(err)
		}
		var be shard.Backend = shard.NewRemote(sp.url, shard.RemoteOptions{
			Client: hpasclient.Options{HTTPClient: &http.Client{Transport: s.transport}, Seed: seed(i)},
		})
		if tr != nil {
			be = &backendSpy{Backend: be, name: sp.name, tr: tr}
		}
		members = append(members, shard.Member{Name: sp.name, Addr: sp.url, Backend: be})
	}
	rt, err := shard.NewRouter(members, shard.Config{Logf: logf})
	if err != nil {
		return fail(err)
	}
	s.router = rt
	if s.rsrv, s.url, err = s.serveOn(rt.Handler()); err != nil {
		return fail(err)
	}
	return s, nil
}

// client returns a client of the router with the given seed, which
// fixes its idempotency keys.
func (s *stack) client(seed int64) *hpasclient.Client {
	return hpasclient.New(s.url, hpasclient.Options{HTTPClient: s.hc, Seed: seed})
}

// shardClient returns a client talking to shard i directly.
func (s *stack) shardClient(i int, seed int64) *hpasclient.Client {
	return hpasclient.New(s.shards[i].url, hpasclient.Options{HTTPClient: s.hc, Seed: seed})
}

// close stops the router, the shards and their journals, and waits for
// every server goroutine to exit.
func (s *stack) close() error {
	var errs []error
	if s.rsrv != nil {
		errs = append(errs, s.rsrv.Close())
	}
	if s.router != nil {
		errs = append(errs, s.router.Close())
	}
	for _, sp := range s.shards {
		if sp.srv != nil {
			errs = append(errs, sp.srv.Close())
		}
		if sp.mgr != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = sp.mgr.Drain(ctx) // every job is finished by now; a timeout is cancelled below
			cancel()
			sp.mgr.Close()
		}
		if sp.store != nil {
			errs = append(errs, sp.store.Close())
		}
	}
	s.wg.Wait()
	s.transport.CloseIdleConnections()
	return errors.Join(errs...)
}

// retainedHeap is the live heap after a full collection, with the
// stack's pooled connections closed first: they hold 64 KiB buffers on
// both ends, and the reading is meant to count job state. The servers'
// connection goroutines get a moment to see the close and release
// their buffers.
func (s *stack) retainedHeap() uint64 {
	s.transport.CloseIdleConnections()
	time.Sleep(100 * time.Millisecond)
	return liveHeap()
}

// journalBytes sums the sizes of every shard's journal files.
func (s *stack) journalBytes() (int64, error) {
	var total int64
	for _, sp := range s.shards {
		ents, err := os.ReadDir(sp.dir)
		if err != nil {
			return 0, err
		}
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}
