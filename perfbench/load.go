package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"hpas"
	"hpas/api"
	hpasclient "hpas/client"
)

// jobSpec is one generated submission plus its ground truth: the
// injected campaign class over [from, to) simulated seconds, "none"
// elsewhere.
type jobSpec struct {
	req      api.JobRequest
	class    string
	from, to float64
	ref      bool // one of referenceJobs
}

// truth is the injected label at simulation time t.
func (j jobSpec) truth(t float64) string {
	if j.class != "none" && t >= j.from && t < j.to {
		return j.class
	}
	return "none"
}

var (
	diagnoseApps    = []string{"CoMD", "miniGhost", "miniMD", "kripke"}
	diagnoseClasses = []string{"none", "cpuoccupy", "membw", "memleak", "cachecopy", "memeater"}
)

// withCampaign sets a compact campaign of class over [from, to).
func withCampaign(req api.JobRequest, class string, from, to int) jobSpec {
	j := jobSpec{req: req, class: class, from: float64(from), to: float64(to)}
	if class != "none" {
		j.req.Campaign = fmt.Sprintf("%s@%d-%d", class, from, to)
	}
	return j
}

// diagnoseJob builds a paper diagnosis job of app and class: 4 nodes,
// 300 s observed, window 15 s, with a seeded job seed and campaign
// window. Campaign bounds sit on window boundaries so every window has
// one true label.
func diagnoseJob(r *rand.Rand, app, class string) jobSpec {
	req := api.JobRequest{App: app, Nodes: 4, Duration: 300, Window: 15, Seed: 1 + r.Uint64N(1<<40)}
	from := 15 * (2 + r.IntN(7))
	to := from + 15*(4+r.IntN(5))
	return withCampaign(req, class, from, to)
}

// diagnoseJobs returns the diagnose mix: app × class combinations are
// dealt from decks shuffled by order, so every run covers them evenly;
// r draws each job's seed and campaign window.
func diagnoseJobs(order, r *rand.Rand) func() jobSpec {
	var deck []int
	return func() jobSpec {
		if len(deck) == 0 {
			deck = order.Perm(len(diagnoseApps) * len(diagnoseClasses))
		}
		k := deck[0]
		deck = deck[1:]
		return diagnoseJob(r, diagnoseApps[k/len(diagnoseClasses)], diagnoseClasses[k%len(diagnoseClasses)])
	}
}

// churnJobs returns clean (no app) 60 s jobs.
func churnJobs(r *rand.Rand) func() jobSpec {
	return func() jobSpec {
		return jobSpec{req: api.JobRequest{Duration: 60, Seed: 1 + r.Uint64N(1<<40)}, class: "none"}
	}
}

// referenceJobs are fixed diagnosis jobs, one per class, whose window
// accuracy is a deterministic property of the detector and pipeline.
func referenceJobs() []jobSpec {
	var out []jobSpec
	for i, class := range diagnoseClasses {
		req := api.JobRequest{App: "CoMD", Nodes: 4, Duration: 300, Window: 15, Seed: uint64(101 + i)}
		j := withCampaign(req, class, 90, 210)
		j.ref = true
		out = append(out, j)
	}
	return out
}

// jobRec is the client-side record of one job: latencies from the
// intended send time, the follower's checks, and a digest of the
// frames it received.
type jobRec struct {
	spec jobSpec
	gid  string
	due  time.Time

	submit, firstWindow, done time.Duration
	submitCall                time.Duration // the Submit call alone
	called, submitted, ended  time.Time     // client-side span bounds
	windows, correct          int
	frames                    int
	digest                    uint64
	err                       error
}

// frameDigest hashes a follow's frames (seq, type, bytes) and checks
// that seqs are contiguous from 0 with no gap frames.
type frameDigest struct {
	h    uint64
	next int
}

func newFrameDigest() *frameDigest { return &frameDigest{h: fnv.New64a().Sum64()} }

func (d *frameDigest) add(f hpas.StreamFrame) error {
	if f.Type == "gap" {
		return fmt.Errorf("gap frame at seq %d", f.Seq)
	}
	if f.Seq != d.next {
		return fmt.Errorf("seq %d, want %d", f.Seq, d.next)
	}
	d.next++
	h := fnv.New64a()
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(d.h >> (8 * i))
		b[8+i] = byte(uint64(f.Seq) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(f.Type))
	h.Write(f.Data)
	d.h = h.Sum64()
	return nil
}

// runJob submits spec through c and follows the job to its end,
// checking every frame.
func runJob(ctx context.Context, c *hpasclient.Client, spec jobSpec, due time.Time) *jobRec {
	rec := &jobRec{spec: spec, due: due}
	rec.called = time.Now()
	st, err := c.Submit(ctx, spec.req)
	rec.submitted = time.Now()
	rec.submit = rec.submitted.Sub(due)
	rec.submitCall = rec.submitted.Sub(rec.called)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	rec.gid = st.ID
	dig := newFrameDigest()
	sawDone := false
	err = c.StreamFrames(ctx, st.ID, 0, func(f hpas.StreamFrame) error {
		if err := dig.add(f); err != nil {
			return err
		}
		switch f.Type {
		case "window":
			if rec.windows == 0 {
				rec.firstWindow = time.Since(due)
			}
			var m hpas.StreamMessage
			if err := json.Unmarshal(f.Data, &m); err != nil || m.Window == nil {
				return fmt.Errorf("window frame %d: %v", f.Seq, err)
			}
			rec.windows++
			if m.Window.Class == spec.truth((m.Window.From+m.Window.To)/2) {
				rec.correct++
			}
		case "done":
			rec.done = time.Since(due)
			var m hpas.StreamMessage
			if err := json.Unmarshal(f.Data, &m); err != nil {
				return fmt.Errorf("done frame: %v", err)
			}
			if m.State != hpas.StreamJobDone {
				return fmt.Errorf("job ended %s: %s", m.State, m.Error)
			}
			sawDone = true
		}
		return nil
	})
	rec.ended = time.Now()
	rec.frames, rec.digest = dig.next, dig.h
	switch {
	case err != nil:
		rec.err = fmt.Errorf("follow %s: %w", st.ID, err)
	case !sawDone:
		rec.err = fmt.Errorf("follow %s: ended without a done frame", st.ID)
	case rec.windows == 0:
		rec.err = fmt.Errorf("follow %s: no window frames", st.ID)
	}
	return rec
}

// replayRec is one full-history replay of a finished job.
type replayRec struct {
	gid    string
	start  time.Time
	dur    time.Duration
	frames int
	err    error
}

// replayJob follows finished job id from seq 0 through c and checks the
// frames against the digest its live follower saw.
func replayJob(ctx context.Context, c *hpasclient.Client, id string, want uint64) replayRec {
	start := time.Now()
	dig := newFrameDigest()
	err := c.StreamFrames(ctx, id, 0, dig.add)
	r := replayRec{gid: id, start: start, dur: time.Since(start), frames: dig.next, err: err}
	if err == nil && dig.h != want {
		r.err = fmt.Errorf("replay of %s differs from its live stream (%d frames)", id, dig.next)
	}
	return r
}

// loadResult is one phase of generated load.
type loadResult struct {
	jobs     []*jobRec
	replays  []replayRec
	lags     []float64 // open loop: ms the generator sent late
	inflight int       // open loop: most jobs in flight at once
	elapsed  time.Duration
}

// maxInflight bounds the open loop's concurrent jobs; an arrival that
// finds it full waits, and the wait shows as generator lag.
const maxInflight = 256

// arrivals returns the open loop's send offsets in seconds: round(rate·dur)
// exponential gaps of mean 1/rate, drawn by stratified sampling (one
// gap from each of n equal-probability slices of the exponential
// distribution, in seeded random order) and scaled to span dur. Every
// run thus sends the same amount of work with the same gap
// distribution; seeds differ in the order of the gaps, which is what
// makes arrivals cluster.
func arrivals(r *rand.Rand, rate float64, dur time.Duration) []float64 {
	n := int(rate*dur.Seconds() + 0.5)
	gaps := make([]float64, n)
	total := 0.0
	for i, k := range r.Perm(n) {
		u := (float64(k) + r.Float64()) / float64(n)
		gaps[i] = -math.Log(1-u) / rate
		total += gaps[i]
	}
	out := make([]float64, n)
	at := 0.0
	for i, g := range gaps {
		out[i] = at
		at += g * dur.Seconds() / total
	}
	return out
}

// openLoop sends next's jobs at the arrivals schedule for dur, one
// goroutine per job, and waits for all of them to finish.
func openLoop(ctx context.Context, c *hpasclient.Client, r *rand.Rand, rate float64, dur time.Duration, next func() jobSpec) loadResult {
	var (
		res  loadResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		live atomic.Int64
		sem  = make(chan struct{}, maxInflight)
	)
	start := time.Now()
	for _, off := range arrivals(r, rate, dur) {
		due := start.Add(time.Duration(off * float64(time.Second)))
		spec := next()
		time.Sleep(time.Until(due))
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		res.lags = append(res.lags, ms(time.Since(due)))
		if n := int(live.Add(1)); n > res.inflight {
			res.inflight = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := runJob(ctx, c, spec, due)
			live.Add(-1)
			<-sem
			mu.Lock()
			res.jobs = append(res.jobs, rec)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closedLoop runs one goroutine per client, each submitting its next
// job only after the previous one is done, until dur has passed.
// Client i draws its jobs from gens[i].
func closedLoop(ctx context.Context, clients []*hpasclient.Client, dur time.Duration, gens []func() jobSpec) loadResult {
	var (
		res loadResult
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(c *hpasclient.Client, next func() jobSpec) {
			defer wg.Done()
			var local []*jobRec
			for time.Since(start) < dur && ctx.Err() == nil {
				local = append(local, runJob(ctx, c, next(), time.Now()))
			}
			mu.Lock()
			res.jobs = append(res.jobs, local...)
			mu.Unlock()
		}(c, gens[i])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// runList runs the given jobs to completion over the clients, closed
// loop: set-up's prefill.
func runList(ctx context.Context, clients []*hpasclient.Client, specs []jobSpec) loadResult {
	var (
		res  loadResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *hpasclient.Client) {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if next == len(specs) {
					mu.Unlock()
					return
				}
				spec := specs[next]
				next++
				mu.Unlock()
				rec := runJob(ctx, c, spec, time.Now())
				mu.Lock()
				res.jobs = append(res.jobs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// replayLoop runs one follower per client, closed loop, each replaying
// corpus jobs round-robin from its own offset until dur has passed.
func replayLoop(ctx context.Context, clients []*hpasclient.Client, corpus []*jobRec, dur time.Duration) loadResult {
	var (
		res loadResult
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *hpasclient.Client) {
			defer wg.Done()
			var local []replayRec
			for k := i; time.Since(start) < dur && ctx.Err() == nil; k += len(clients) {
				j := corpus[k%len(corpus)]
				local = append(local, replayJob(ctx, c, j.gid, j.digest))
			}
			mu.Lock()
			res.replays = append(res.replays, local...)
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// failures counts the phase's failed operations and returns the first
// failure.
func (r loadResult) failures() (int, error) {
	n := 0
	var first error
	note := func(err error) {
		if err != nil {
			n++
			if first == nil {
				first = err
			}
		}
	}
	for _, j := range r.jobs {
		note(j.err)
	}
	for _, p := range r.replays {
		note(p.err)
	}
	return n, first
}
