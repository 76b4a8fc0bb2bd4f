package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpas"
	"hpas/api"
	"hpas/internal/ml"
	"hpas/internal/shard"
	"hpas/internal/stream"
)

// span is one timed call across a layer boundary. Req is the routed job
// id (gid) the call served; calls made below the router carry a
// shard-local id until finish resolves it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// parentName is the span hierarchy: a span's parent is the span of the
// same request, with the first of these names that has one, that
// overlaps it most. A job's run starts when it is submitted, before
// its follower connects, so a run is not always inside the stream that
// waits on it; self time clips children to the parent's interval.
var parentName = map[string][]string{
	"shard.submit":   {"client.submit"},
	"journal.create": {"shard.submit"},
	"shard.stream":   {"client.follow", "client.replay"},
	"stream.run":     {"shard.stream", "client.follow"},
	"journal.append": {"stream.run"},
	"journal.state":  {"stream.run"},
	"ml.predict":     {"stream.run"},
}

// tracer keeps spans in memory while recording is on; nothing is
// written until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	spans   []span
	samples layerSamples
	localTo map[string]string        // "shard/localID" -> gid, always kept
	runs    map[string]time.Duration // "shard/localID" -> manager run time, always kept
}

// layerSamples are the per-call measurements the decorators take
// while recording is on.
type layerSamples struct {
	queueMS      []float64 // manager queue wait: started − created
	appendUS     []float64 // journal Append
	stateUS      []float64 // journal State
	records      int64     // journal records written
	submitUS     map[string]float64
	firstFrameUS []float64 // shard stream call to its first frame
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		samples: layerSamples{submitUS: make(map[string]float64)},
		localTo: make(map[string]string),
		runs:    make(map[string]time.Duration),
	}
}

// sampleKind names one per-call measurement series.
type sampleKind int

const (
	queueWait  sampleKind = iota // ms
	journalApp                   // µs; one journal record
	journalSt                    // µs; one journal record
	journalCr                    // one journal record, untimed
	firstFrame                   // µs
)

// observe records one measurement if recording is on.
func (t *tracer) observe(k sampleKind, v float64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := &t.samples
	switch k {
	case queueWait:
		ls.queueMS = append(ls.queueMS, v)
	case journalApp:
		ls.appendUS = append(ls.appendUS, v)
		ls.records++
	case journalSt:
		ls.stateUS = append(ls.stateUS, v)
		ls.records++
	case journalCr:
		ls.records++
	case firstFrame:
		ls.firstFrameUS = append(ls.firstFrameUS, v)
	}
}

// observeSubmit records the shard submit time of routed job gid if
// recording is on.
func (t *tracer) observeSubmit(gid string, v float64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.samples.submitUS[gid] = v
	t.mu.Unlock()
}

// runTime is how long a manager ran routed job gid.
func (t *tracer) runTime(gid string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, g := range t.localTo {
		if g == gid {
			d, ok := t.runs[k]
			return d, ok
		}
	}
	return 0, false
}

func (t *tracer) record(name, req string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	t.add(name, req, start, end)
}

// add records a span whether or not recording is on; the benchmark
// uses it for client spans it reconstructs after a traced phase.
func (t *tracer) add(name, req string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// bind records that shard-local job local on shard sh is routed job gid.
func (t *tracer) bind(sh, local, gid string) {
	t.mu.Lock()
	t.localTo[sh+"/"+local] = gid
	t.mu.Unlock()
}

// finish resolves local ids to gids, assigns ids and parents, and
// returns the spans in start order.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	for i := range out {
		if g, ok := t.localTo[out[i].Req]; ok {
			out[i].Req = g
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	byReq := make(map[string][]int)
	for i := range out {
		out[i].ID = i
		out[i].Parent = -1
		byReq[out[i].Req] = append(byReq[out[i].Req], i)
	}
	for i := range out {
		want, ok := parentName[out[i].Name]
		if !ok {
			continue
		}
		out[i].Parent = -1
		for _, name := range want {
			best, most := -1, int64(0)
			for _, j := range byReq[out[i].Req] {
				p := out[j]
				if p.Name != name {
					continue
				}
				if ov := min(p.End, out[i].End) - max(p.Start, out[i].Start); ov > most {
					best, most = j, ov
				}
			}
			if best >= 0 {
				out[i].Parent = best
				break
			}
		}
	}
	return out
}

// layerTime is one span name's aggregate over a run.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"` // duration minus the part children cover
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals.
func selfTimes(spans []span) []layerTime {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		d := float64(s.End - s.Start)
		lt.Count++
		lt.Total += d / 1e6
		lt.Self += (d - covered(kids[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self > out[b].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(children []span, lo, hi int64) float64 {
	sort.Slice(children, func(a, b int) bool { return children[a].Start < children[b].Start })
	var total, curS, curE int64
	open := false
	for _, c := range children {
		s, e := max(c.Start, lo), min(c.End, hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return float64(total)
}

// writeSpans writes the spans as NDJSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	return f.Close()
}

// ---- shard.Backend decorator (router → shard) ----

// rawSubmitter mirrors the router's optional fast path. The decorator
// must forward it: without it the router would marshal every
// submission itself, which is a different program.
type rawSubmitter interface {
	SubmitRaw(ctx context.Context, req api.JobRequest, raw []byte, key string) (api.JobStatus, bool, error)
}

// backendSpy times the router's calls into one shard.
type backendSpy struct {
	shard.Backend
	name string
	tr   *tracer
}

func (b *backendSpy) noteSubmit(key string, st api.JobStatus, start, end time.Time) {
	gid := strings.TrimPrefix(key, "hpasr-")
	b.tr.bind(b.name, st.ID, gid)
	b.tr.record("shard.submit", gid, start, end)
	b.tr.observeSubmit(gid, us(end.Sub(start)))
}

func (b *backendSpy) Submit(ctx context.Context, req api.JobRequest, key string) (api.JobStatus, bool, error) {
	start := time.Now()
	st, replayed, err := b.Backend.Submit(ctx, req, key)
	if err == nil {
		b.noteSubmit(key, st, start, time.Now())
	}
	return st, replayed, err
}

func (b *backendSpy) SubmitRaw(ctx context.Context, req api.JobRequest, raw []byte, key string) (api.JobStatus, bool, error) {
	rs, ok := b.Backend.(rawSubmitter)
	if !ok {
		return b.Submit(ctx, req, key)
	}
	start := time.Now()
	st, replayed, err := rs.SubmitRaw(ctx, req, raw, key)
	if err == nil {
		b.noteSubmit(key, st, start, time.Now())
	}
	return st, replayed, err
}

func (b *backendSpy) StreamFrames(ctx context.Context, id string, from int, fn func(hpas.StreamFrame) error) error {
	start := time.Now()
	first := true
	err := b.Backend.StreamFrames(ctx, id, from, func(f hpas.StreamFrame) error {
		if first {
			first = false
			b.tr.observe(firstFrame, us(time.Since(start)))
		}
		return fn(f)
	})
	b.tr.record("shard.stream", b.name+"/"+id, start, time.Now())
	return err
}

// ---- stream.Store decorator (manager → journal) ----

// storeSpy times one shard manager's journal calls and marks the job
// its single worker is running, so classifier calls can be attributed.
type storeSpy struct {
	inner stream.Store
	name  string
	tr    *tracer

	running atomic.Value // string: local id of the job the worker runs

	mu      sync.Mutex // guards created and started
	created map[string]time.Time
	started map[string]time.Time
}

func newStoreSpy(name string, inner stream.Store, tr *tracer) *storeSpy {
	s := &storeSpy{inner: inner, name: name, tr: tr,
		created: make(map[string]time.Time), started: make(map[string]time.Time)}
	s.running.Store("")
	return s
}

func (s *storeSpy) req(id string) string { return s.name + "/" + id }

func (s *storeSpy) Create(id string, created time.Time, spec stream.JobSpec) error {
	start := time.Now()
	err := s.inner.Create(id, created, spec)
	s.tr.record("journal.create", s.req(id), start, time.Now())
	s.mu.Lock()
	s.created[id] = created
	s.mu.Unlock()
	s.tr.observe(journalCr, 0)
	return err
}

func (s *storeSpy) Append(id string, seq int, msg stream.Message) error {
	start := time.Now()
	err := s.inner.Append(id, seq, msg)
	end := time.Now()
	s.tr.record("journal.append", s.req(id), start, end)
	s.tr.observe(journalApp, us(end.Sub(start)))
	return err
}

func (s *storeSpy) State(id string, state stream.JobState, errText string, at time.Time) error {
	if state == stream.JobRunning {
		s.running.Store(id)
	}
	start := time.Now()
	err := s.inner.State(id, state, errText, at)
	end := time.Now()
	s.tr.record("journal.state", s.req(id), start, end)
	s.tr.observe(journalSt, us(end.Sub(start)))
	s.mu.Lock()
	created, hasCreated := s.created[id]
	started, hasStarted := s.started[id]
	switch {
	case state == stream.JobRunning:
		s.started[id] = at
	case state.Final():
		delete(s.started, id)
		delete(s.created, id)
	}
	s.mu.Unlock()
	switch {
	case state == stream.JobRunning && hasCreated:
		s.tr.observe(queueWait, ms(at.Sub(created)))
	case state.Final() && hasStarted:
		s.tr.record("stream.run", s.req(id), started, at)
		s.tr.mu.Lock()
		s.tr.runs[s.req(id)] = at.Sub(started)
		s.tr.mu.Unlock()
	}
	if state.Final() {
		s.running.Store("")
	}
	return err
}

func (s *storeSpy) Close() error { return s.inner.Close() }

// ---- classifier decorator (pipeline → detector model) ----

// voter mirrors stream.Pipeline's optional vote-share interface. The
// decorator must forward it: the pipeline type-asserts it and, without
// it, classifies through Predict with confidence 1, which is a
// different program.
type voter interface {
	Votes(x []float64) []float64
}

// modelSpy times classification. Its current func names the request
// the call serves (nil leaves spans unattributed).
type modelSpy struct {
	inner   ml.Classifier
	tr      *tracer
	current func() string

	calls atomic.Int64
	nanos atomic.Int64
}

func (m *modelSpy) Fit(ds *ml.Dataset, idx []int) error { return m.inner.Fit(ds, idx) }

func (m *modelSpy) note(start time.Time) {
	end := time.Now()
	m.calls.Add(1)
	m.nanos.Add(end.Sub(start).Nanoseconds())
	if m.current != nil {
		m.tr.record("ml.predict", m.current(), start, end)
	}
}

func (m *modelSpy) Predict(x []float64) int {
	start := time.Now()
	k := m.inner.Predict(x)
	m.note(start)
	return k
}

func (m *modelSpy) Votes(x []float64) []float64 {
	start := time.Now()
	out := m.inner.(voter).Votes(x)
	m.note(start)
	return out
}

// spyDetector returns a copy of det whose model is timed. The trained
// forest always has vote shares; a model without them is refused
// because the spy would add the interface the pipeline tests for.
func spyDetector(det *hpas.Detector, tr *tracer, current func() string) (*hpas.Detector, *modelSpy, error) {
	if _, ok := det.Model.(voter); !ok {
		return nil, nil, fmt.Errorf("model %T has no Votes; the spy would change the pipeline", det.Model)
	}
	spy := &modelSpy{inner: det.Model, tr: tr, current: current}
	d := *det
	d.Model = spy
	return &d, spy, nil
}
