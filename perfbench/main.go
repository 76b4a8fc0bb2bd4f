// Command perfbench is the repository benchmark. It runs one named
// workload against the real service stack in one process — the client
// package, a shard.Router over loopback HTTP, two journaled serve
// shards with one worker each, the stream manager and pipeline, and
// the simulator — checks that every output is correct, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown) as
// the last line of standard output:
//
//	go build -o perfbench . && ./perfbench -workload diagnose -seed 1 -seconds 30 -trace 0
//
// run.sh builds and runs it from the repository root. NOTES.md gives
// the workloads, the metrics and the layer each one belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"hpas"
	hpasclient "hpas/client"
	"hpas/serve"
)

// Run shape. The open-loop rate is about half the stack's capacity on
// two cores (two one-worker shards, ~0.2 s of simulation per job).
const (
	setups       = 3                       // set-ups per run; setup_s is their median
	diagnoseRate = 2.5                     // diagnose arrivals per second
	warmup       = 2 * time.Second         // discarded before timing
	roundLen     = 2500 * time.Millisecond // measured load runs in rounds of at most this
	stackRounds  = 4                       // churn rounds one stack serves before a fresh one
	roundWarmup  = 500 * time.Millisecond  // discarded at the start of each fresh churn stack
	probeBurst   = 250 * time.Millisecond  // closed-loop probe after each round
	verifyLimit  = 240                     // most jobs replayed by the correctness pass per stack
	replicaJobs  = 4                       // jobs a traced run re-simulates
	minAccuracy  = 0.5                     // floor on any seed's window accuracy
)

// scheduleSeed fixes the diagnose arrival schedule and the order of the
// app × class deck across workload seeds (common random numbers). The
// workload seed draws every job's simulation seed and campaign window:
// seeds vary what each job simulates, not when which kind of job comes.
const scheduleSeed = 0x5eed

// refAccuracy is the window accuracy of the six reference jobs at the
// commit that defined this benchmark: 89 of their 120 windows. It is
// deterministic; a lower value means the detector or pipeline now
// classifies worse.
const refAccuracy = 89.0 / 120

var workloads = []string{"diagnose", "churn"}

// ungated end-to-end figures are printed but left out of the result
// line: their run-to-run spread on two shared cores is wider than any
// regression bound would be (see NOTES.md).
var ungated = []string{"submit_p50_ms", "submit_p90_ms", "first_window_p90_ms"}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed makes the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the traced per-layer breakdown instead of end-to-end metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for journals, traces and result files")
	flag.Parse()
	o.trace = traceFlag == 1
	if !slices.Contains(workloads, o.workload) || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: FAIL: %v\n", o.workload, o.seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// seedOf derives a distinct, nonzero client seed from the workload
// seed, a role, the run index within the role and the client index,
// so no two clients in a process share an idempotency-key stream.
func seedOf(base uint64, role, run, client int) int64 {
	x := base ^ uint64(role)<<48 ^ uint64(run)<<32 ^ uint64(client)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) | 1
}

// Seed roles.
const (
	roleRouter = iota + 1
	roleSetup
	roleWarm
	roleTimed
	roleTraced
	roleVerify
	roleProbe
)

func (o options) rng(role, run int) *rand.Rand {
	return rand.New(rand.NewPCG(o.seed, uint64(role)<<32|uint64(run)))
}

func (o options) clients(s *stack, role, run int) []*hpasclient.Client {
	out := make([]*hpasclient.Client, runtime.NumCPU())
	for i := range out {
		out[i] = s.client(seedOf(o.seed, role, run, i))
	}
	return out
}

// setupRec is one timed set-up.
type setupRec struct {
	total, dataset, fit, prefill time.Duration
	pre                          loadResult
}

// segment is one stack and the jobs it holds.
type segment struct {
	s        *stack
	heapBase uint64 // live heap once the stack was up, before any job
	held     []*jobRec
}

// setUp trains the detector, starts a stack and prefills it, timing
// each step. The live-heap read
// after start is excluded from the timing.
func (o options) setUp(ctx context.Context, k int, dir string, tr *tracer) (*segment, setupRec, error) {
	var rec setupRec
	t0 := time.Now()
	det, dsDur, fitDur, err := train(ctx)
	if err != nil {
		return nil, rec, err
	}
	rec.dataset, rec.fit = dsDur, fitDur
	s, err := startStack(filepath.Join(dir, fmt.Sprintf("setup%d", k)), fmt.Sprintf("u%d", k), det, tr,
		func(i int) int64 { return seedOf(o.seed, roleRouter, k, i) })
	if err != nil {
		return nil, rec, err
	}
	pause := time.Now()
	seg := &segment{s: s, heapBase: s.retainedHeap()}
	paused := time.Since(pause)
	t2 := time.Now()
	rec.pre = runList(ctx, o.clients(s, roleSetup, k), referenceJobs())
	rec.prefill = time.Since(t2)
	rec.total = time.Since(t0) - paused
	seg.held = rec.pre.jobs
	if n, err := rec.pre.failures(); n > 0 {
		s.close()
		return nil, rec, fmt.Errorf("prefill: %d of %d jobs failed: %w", n, len(rec.pre.jobs), err)
	}
	return seg, rec, nil
}

// newRound starts a fresh stack at churn round k and warms it up.
func (o options) newRound(ctx context.Context, k int, dir string, det *hpas.Detector, tr *tracer) (*segment, error) {
	s, err := startStack(filepath.Join(dir, fmt.Sprintf("round%d", k)), fmt.Sprintf("r%d", k), det, tr,
		func(i int) int64 { return seedOf(o.seed, roleRouter, 100+k, i) })
	if err != nil {
		return nil, err
	}
	seg := &segment{s: s, heapBase: s.retainedHeap()}
	warm := o.runPhase(ctx, seg, roleWarm, 100+k, roundWarmup)
	if n, err := warm.failures(); n > 0 {
		s.close()
		return nil, fmt.Errorf("round %d warm-up: %d failed: %w", k, n, err)
	}
	return seg, nil
}

// runPhase applies the workload's load to seg for dur and adds the
// jobs it ran to seg.held.
func (o options) runPhase(ctx context.Context, seg *segment, role, run int, dur time.Duration) loadResult {
	var lr loadResult
	r := o.rng(role, run)
	switch o.workload {
	case "diagnose":
		sched := rand.New(rand.NewPCG(scheduleSeed, uint64(role)<<32|uint64(run)))
		lr = openLoop(ctx, seg.s.client(seedOf(o.seed, role, run, 0)), sched, diagnoseRate, dur, diagnoseJobs(sched, r))
	case "churn":
		clients := o.clients(seg.s, role, run)
		gens := make([]func() jobSpec, len(clients))
		for i := range gens {
			gens[i] = churnJobs(o.rng(role, run<<8|i))
		}
		lr = closedLoop(ctx, clients, dur, gens)
	}
	seg.held = append(seg.held, lr.jobs...)
	return lr
}

// segResult is what a stack showed once its load was done.
type segResult struct {
	vr            verifyResult
	heapPerJobKiB float64
	journalPerJob float64
	heapLive      uint64
}

// finish runs the correctness pass over everything seg's stack ran and
// measures its retained state.
func (o options) finish(ctx context.Context, seg *segment, idx int) (segResult, error) {
	var sr segResult
	var err error
	if sr.vr, err = verify(ctx, seg.s, seg.held, verifyLimit, seedOf(o.seed, roleVerify, idx, 0)); err != nil {
		return sr, err
	}
	if shed := seg.s.counter.count(); shed != 0 {
		return sr, fmt.Errorf("clients were answered 429/503 %d times", shed)
	}
	sr.heapLive = seg.s.retainedHeap()
	jb, err := seg.s.journalBytes()
	if err != nil {
		return sr, err
	}
	n := float64(len(seg.held))
	sr.heapPerJobKiB = float64(int64(sr.heapLive)-int64(seg.heapBase)) / n / 1024
	sr.journalPerJob = float64(jb) / n
	return sr, nil
}

// primary is the figure drift and tracing overhead are reported on:
// the median done latency.
func primary(lr loadResult) float64 {
	return median(jobMS(lr.jobs, func(j *jobRec) time.Duration { return j.done }))
}

// replaySummary is the median over bursts of each burst's message rate
// and median and p90 replay time, with the total replay count.
func replaySummary(bursts []loadResult) (rate, p50, p90 float64, n int) {
	var rates, p50s, p90s []float64
	for _, b := range bursts {
		frames := 0
		for _, r := range b.replays {
			frames += r.frames
		}
		ts := replayMS(b.replays)
		n += len(ts)
		rates = append(rates, float64(frames)/b.elapsed.Seconds())
		p50s = append(p50s, percentile(ts, 50))
		p90s = append(p90s, percentile(ts, 90))
	}
	return median(rates), median(p50s), median(p90s), n
}

// pool merges phases.
func pool(ms []loadResult) loadResult {
	var out loadResult
	for _, m := range ms {
		out.jobs = append(out.jobs, m.jobs...)
		out.lags = append(out.lags, m.lags...)
		out.inflight = max(out.inflight, m.inflight)
		out.elapsed += m.elapsed
	}
	return out
}

// drift splits pooled load at its midpoint in time and returns the
// primary figure of each half.
func drift(lr loadResult) (first, second float64) {
	var a, b loadResult
	jobs := sortByDue(lr.jobs)
	a.jobs, b.jobs = jobs[:len(jobs)/2], jobs[len(jobs)/2:]
	return primary(a), primary(b)
}

func sortByDue(jobs []*jobRec) []*jobRec {
	out := append([]*jobRec(nil), jobs...)
	sort.Slice(out, func(a, b int) bool { return out[a].due.Before(out[b].due) })
	return out
}

func jobMS(jobs []*jobRec, f func(*jobRec) time.Duration) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.err == nil {
			out = append(out, ms(f(j)))
		}
	}
	return out
}

func replayMS(rs []replayRec) []float64 {
	var out []float64
	for _, r := range rs {
		if r.err == nil {
			out = append(out, ms(r.dur))
		}
	}
	return out
}

func accuracy(jobs []*jobRec) float64 {
	var w, c int
	for _, j := range jobs {
		w += j.windows
		c += j.correct
	}
	return ratio(float64(c), float64(w))
}

// report collects metrics with their sample counts for the human
// lines and the JSON result.
type report struct {
	metrics map[string]metric
	order   []string
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name, unit string, v float64, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// pct sets the p50 and p90 of xs under the names pattern makes when
// its %s is replaced by "p50" and "p90".
func (r *report) pct(pattern, unit string, xs []float64, from string) {
	note := fmt.Sprintf("n=%d, %s", len(xs), from)
	r.set(fmt.Sprintf(pattern, "p50"), unit, percentile(xs, 50), note)
	r.set(fmt.Sprintf(pattern, "p90"), unit, percentile(xs, 90), note)
}

func (r *report) print() {
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("  %-30s %14.6g %-6s", name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		if slices.Contains(ungated, name) {
			line += "  [not in the result line]"
		}
		fmt.Println(line)
	}
}

// envStamp identifies the run's machine, toolchain and source.
func envStamp(o options) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s workload=%s seed=%d seconds=%d trace=%v",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.workload, o.seed, o.seconds, o.trace)
}

// tracedTotals accumulates what the traced phases showed.
type tracedTotals struct {
	hits, encoded int64 // frame ring, from the shards' Stats
	allocs        uint64
	gcCPU, cpu    float64
}

// half is one measured half of a run: its load rounds, the probes
// taken after each round, and the results of the stacks it finished.
type half struct {
	rounds, probes []loadResult
	srs            []segResult
}

// runMeasured applies one measured half in rounds of at most
// roundLen. After each round a short probe replays the stack's
// finished jobs, the read path the job workloads do not exercise
// themselves. Probes at many points over the run sample the machine
// in the speed states the workload's own load sees, instead of in a
// few. A churn stack serves stackRounds rounds, is finished, and the
// next round starts a fresh one. tt is nil when the half is untraced.
func (o options) runMeasured(ctx context.Context, seg *segment, dir string, det *hpas.Detector, tr *tracer, dur time.Duration, roundBase int, tt *tracedTotals) (half, error) {
	var h half
	n := max(1, int((dur+roundLen-1)/roundLen))
	dur /= time.Duration(n)
	role := roleTimed
	if tt != nil {
		role = roleTraced
	}
	for r := 0; r < n; r++ {
		k := roundBase + r
		if seg.s == nil {
			next, err := o.newRound(ctx, k, dir, det, tr)
			if err != nil {
				return h, err
			}
			*seg = *next
		}
		var rt0 runtimeSample
		if tt != nil {
			rt0 = readRuntime()
			seg.s.tr.on.Store(true)
		}
		m := o.runPhase(ctx, seg, role, k, dur)
		if tt != nil {
			seg.s.tr.on.Store(false)
			rt1 := readRuntime()
			tt.allocs += rt1.allocObjects - rt0.allocObjects
			tt.gcCPU += rt1.gcCPU - rt0.gcCPU
			tt.cpu += rt1.totalCPU - rt0.totalCPU
			addClientSpans(seg.s.tr, m)
		}
		if n, err := m.failures(); n > 0 {
			return h, fmt.Errorf("%d of %d jobs failed: %w", n, len(m.jobs), err)
		}
		h.rounds = append(h.rounds, m)
		p, err := o.probe(ctx, seg, k, tt)
		if err != nil {
			return h, err
		}
		h.probes = append(h.probes, p)
		if o.workload == "churn" && (r%stackRounds == stackRounds-1 || r == n-1) {
			sr, err := o.finish(ctx, seg, k)
			if err != nil {
				return h, err
			}
			h.srs = append(h.srs, sr)
			if err := seg.s.close(); err != nil {
				return h, err
			}
			seg.s = nil
		}
	}
	return h, nil
}

// probe replays seg's jobs after round k for a short burst of
// closed-loop load from nproc followers. With every follower busy the
// figures do not hang on how fast an idle core wakes up, as one
// request at a time does. A traced probe records spans and the frame
// ring's hits into tt.
func (o options) probe(ctx context.Context, seg *segment, k int, tt *tracedTotals) (loadResult, error) {
	runtime.GC() // start every probe from the same heap state, not mid-cycle after the load
	var before []hpas.StreamStats
	if tt != nil {
		var err error
		if before, err = shardStats(ctx, seg.s); err != nil {
			return loadResult{}, err
		}
		seg.s.tr.on.Store(true)
	}
	lr := replayLoop(ctx, o.clients(seg.s, roleProbe, k), seg.held, probeBurst)
	if tt != nil {
		seg.s.tr.on.Store(false)
		after, err := shardStats(ctx, seg.s)
		if err != nil {
			return lr, err
		}
		for i := range after {
			tt.hits += after[i].FrameCacheHits - before[i].FrameCacheHits
			tt.encoded += after[i].FramesEncoded - before[i].FramesEncoded
		}
		addClientSpans(seg.s.tr, lr)
	}
	if n, err := lr.failures(); n > 0 {
		return lr, fmt.Errorf("probe after round %d: %d failed: %w", k, n, err)
	}
	return lr, nil
}

// addClientSpans records the client side of a traced phase.
func addClientSpans(tr *tracer, lr loadResult) {
	for _, j := range lr.jobs {
		if j.gid != "" {
			tr.add("client.submit", j.gid, j.called, j.submitted)
			tr.add("client.follow", j.gid, j.submitted, j.ended)
		}
	}
	for _, r := range lr.replays {
		tr.add("client.replay", r.gid, r.start, r.start.Add(r.dur))
	}
}

// bench runs one workload end to end: set-up (several times), warm-up,
// measured load, the correctness pass, and for a traced run the traced
// half, the replica and the allocation count.
func bench(ctx context.Context, o options) (*result, error) {
	goroutines0 := runtime.NumGoroutine()
	fmt.Println("env:", envStamp(o))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	seg := &segment{}
	defer func() {
		if seg.s != nil {
			seg.s.close()
		}
	}()
	var recs []setupRec
	for k := 0; k < setups; k++ {
		if seg.s != nil {
			if err := seg.s.close(); err != nil {
				return nil, err
			}
		}
		next, rec, err := o.setUp(ctx, k, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		*seg = *next
		recs = append(recs, rec)
	}
	det := seg.s.det
	prefill := recs[len(recs)-1].pre.jobs
	attempted := 0
	for _, rec := range recs {
		attempted += len(rec.pre.jobs)
	}

	warm := o.runPhase(ctx, seg, roleWarm, 0, warmup)
	if n, err := warm.failures(); n > 0 {
		return nil, fmt.Errorf("warm-up: %d failed: %w", n, err)
	}
	attempted += len(warm.jobs)

	dur := time.Duration(o.seconds) * time.Second
	if o.trace {
		dur /= 2 // half untraced, half traced
	}
	var tt tracedTotals
	uh, err := o.runMeasured(ctx, seg, dir, det, tr, dur, 0, nil)
	if err != nil {
		return nil, err
	}
	var th half
	if o.trace {
		if th, err = o.runMeasured(ctx, seg, dir, det, tr, dur, 50, &tt); err != nil {
			return nil, err
		}
	}
	srs := append(uh.srs, th.srs...)
	if seg.s != nil {
		sr, err := o.finish(ctx, seg, 0)
		if err != nil {
			return nil, err
		}
		srs = append(srs, sr)
		if err := seg.s.close(); err != nil {
			return nil, err
		}
		seg.s = nil
	}
	u := pool(uh.rounds)
	for _, m := range slices.Concat(uh.rounds, th.rounds, uh.probes, th.probes) {
		attempted += len(m.jobs) + len(m.replays)
	}
	var heapKiB, journalB []float64
	var heapLive uint64
	var vrs []verifyResult
	for _, sr := range srs {
		attempted += 2 * sr.vr.checked
		heapKiB = append(heapKiB, sr.heapPerJobKiB)
		journalB = append(journalB, sr.journalPerJob)
		heapLive = max(heapLive, sr.heapLive)
		vrs = append(vrs, sr.vr)
	}

	var refJobs []*jobRec
	for _, j := range prefill {
		if j.spec.ref {
			refJobs = append(refJobs, j)
		}
	}
	refAcc := accuracy(refJobs)
	if refAcc < refAccuracy-1e-12 {
		return nil, fmt.Errorf("reference window accuracy %.6f is below %.6f", refAcc, refAccuracy)
	}
	if acc := accuracy(u.jobs); acc < minAccuracy {
		return nil, fmt.Errorf("window accuracy %.6f is below %.2f", acc, minAccuracy)
	}

	// Every run re-simulates measured jobs outside the service and
	// checks the replica against core.Run and the live stream; a
	// traced run times the layers on it.
	check := sortByDue(u.jobs)
	if o.trace {
		check = sortByDue(pool(th.rounds).jobs)
	}
	n := 1
	if o.trace {
		n = replicaJobs
	}
	check = check[:min(n, len(check))]
	spied, model, err := spyDetector(det, tr, nil)
	if err != nil {
		return nil, err
	}
	sb := serve.New(nil, det, serve.Config{})
	var rt replicaTimes
	if err := checkReplicas(check, sb, spied, &rt); err != nil {
		return nil, err
	}
	attempted += len(check)

	e2e := newReport()
	var setupS []float64
	for _, rec := range recs {
		setupS = append(setupS, rec.total.Seconds())
	}
	e2e.set("setup_s", "s", median(setupS), fmt.Sprintf("median of %d set-ups", len(setupS)))
	const latFrom = "measured load"
	e2e.pct("submit_%s_ms", "ms", jobMS(u.jobs, func(j *jobRec) time.Duration { return j.submit }), latFrom)
	e2e.pct("first_window_%s_ms", "ms", jobMS(u.jobs, func(j *jobRec) time.Duration { return j.firstWindow }), latFrom)
	e2e.pct("done_%s_ms", "ms", jobMS(u.jobs, func(j *jobRec) time.Duration { return j.done }), latFrom)
	e2e.set("jobs_per_s", "1/s", float64(len(u.jobs))/u.elapsed.Seconds(), fmt.Sprintf("%d jobs over %d rounds", len(u.jobs), len(uh.rounds)))
	repFrom := fmt.Sprintf("median of %d replay-probe bursts after the rounds", len(uh.probes))
	rate, p50, p90, nrep := replaySummary(uh.probes)
	e2e.set("replay_msgs_per_s", "1/s", rate, repFrom)
	note := fmt.Sprintf("n=%d, %s", nrep, repFrom)
	e2e.set("replay_p50_ms", "ms", p50, note)
	e2e.set("replay_p90_ms", "ms", p90, note)
	e2e.set("heap_per_job_kib", "KiB", median(heapKiB), fmt.Sprintf("median of %d stacks", len(heapKiB)))
	e2e.set("journal_bytes_per_job", "B", median(journalB), fmt.Sprintf("median of %d stacks", len(journalB)))
	e2e.set("window_accuracy", "ratio", accuracy(u.jobs), fmt.Sprintf("reference jobs %.6f", refAcc))

	d1, d2 := drift(u)
	fmt.Printf("drift: %s done_ms first half %.6g, second half %.6g (%+.1f%%)\n",
		o.workload, d1, d2, 100*(d2-d1)/d1)
	fmt.Printf("failed_ratio: %.6g (0 failed of %d attempted)\n", failedRatio(0, attempted), attempted)
	res := &result{Correct: true, Attempted: attempted, Metrics: map[string]metric{}}
	for name, m := range e2e.metrics {
		if !slices.Contains(ungated, name) {
			res.Metrics[name] = m
		}
	}
	if !o.trace {
		fmt.Println("end-to-end metrics:")
		e2e.print()
		return res, writeResult(o, e2e)
	}

	layers := newReport()
	tp := pool(th.rounds)
	spans := tr.finish()
	layerMetrics(layers, tr, tp, tt, recs, vrs, heapLive)
	var runTotal time.Duration
	for _, j := range check {
		d, ok := tr.runTime(j.gid)
		if !ok {
			return nil, fmt.Errorf("no manager run time for %s", j.gid)
		}
		runTotal += d
	}
	replicaLayers(layers, rt, model, runTotal)
	counts, err := countAllocs(sb, det)
	if err != nil {
		return nil, err
	}
	allocLayers(layers, counts)
	tracedPrimary := primary(tp)
	untracedPrimary := primary(u)
	layers.set("trace.overhead_pct", "%", 100*(tracedPrimary-untracedPrimary)/untracedPrimary,
		fmt.Sprintf("done_ms untraced %.6g, traced %.6g", untracedPrimary, tracedPrimary))
	layers.set("loadgen.drift_pct", "%", 100*(d2-d1)/d1, "untraced half, second quarter vs first")
	layers.set("runtime.goroutines_leaked", "count", float64(leakedGoroutines(goroutines0)), "after teardown")

	fmt.Println("end-to-end metrics (untraced half):")
	e2e.print()
	fmt.Println("per-layer metrics:")
	layers.print()
	fmt.Println("self time by span (traced half):")
	for _, lt := range selfTimes(spans) {
		fmt.Printf("  %-16s n=%-7d total %10.1f ms  self %10.1f ms\n", lt.Name, lt.Count, lt.Total, lt.Self)
	}
	if err := os.MkdirAll(filepath.Join(o.work, "traces"), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.ndjson", o.workload, o.seed)), spans); err != nil {
		return nil, err
	}
	res.Metrics = layers.metrics
	return res, writeResult(o, e2e, layers)
}
