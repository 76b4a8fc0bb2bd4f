package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hpas"
)

func shardStats(ctx context.Context, s *stack) ([]hpas.StreamStats, error) {
	var out []hpas.StreamStats
	for _, sp := range s.shards {
		st, _, err := shardMetrics(ctx, s.hc, sp.url)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// layerMetrics fills the per-layer metrics the traced half, the
// decorators and the runtime counters give.
func layerMetrics(l *report, tr *tracer, tp loadResult, tt tracedTotals, recs []setupRec, vrs []verifyResult, heapLive uint64) {
	tr.mu.Lock()
	ls := tr.samples
	tr.mu.Unlock()
	const from = "traced half"
	l.pct("stream.queue_wait_ms_%s", "ms", ls.queueMS, from)
	l.set("stream.frame_cache_hit_ratio", "ratio", ratio(float64(tt.hits), float64(tt.hits+tt.encoded)),
		fmt.Sprintf("replay probes, %d hits, %d encoded", tt.hits, tt.encoded))
	l.pct("journal.append_us_%s", "us", ls.appendUS, from)
	l.set("journal.state_us_p50", "us", median(ls.stateUS), fmt.Sprintf("n=%d", len(ls.stateUS)))
	l.set("journal.records", "count", float64(ls.records), from)
	var submitUS []float64
	for _, v := range ls.submitUS {
		submitUS = append(submitUS, v)
	}
	l.set("serve.submit_us_p50", "us", median(submitUS), fmt.Sprintf("n=%d, router to shard over loopback", len(submitUS)))
	l.set("serve.stream_first_frame_us", "us", median(ls.firstFrameUS), fmt.Sprintf("median, n=%d", len(ls.firstFrameUS)))
	var hops []float64
	for _, j := range tp.jobs {
		if b, ok := ls.submitUS[j.gid]; ok {
			hops = append(hops, us(j.submitCall)-b)
		}
	}
	l.pct("shard.submit_hop_us_%s", "us", hops, "client submit minus shard submit")
	var routed, direct []float64
	for _, vr := range vrs {
		routed = append(routed, replayMS(vr.routed)...)
		direct = append(direct, replayMS(vr.direct)...)
	}
	l.set("shard.replay_hop_ratio", "ratio", ratio(median(routed), median(direct)),
		fmt.Sprintf("routed vs direct-to-owner replay medians, n=%d", len(routed)))
	ops := len(tp.jobs)
	l.set("runtime.gc_cpu_fraction", "ratio", ratio(tt.gcCPU, tt.cpu), from)
	l.set("runtime.allocs_per_job", "count", ratio(float64(tt.allocs), float64(ops)), fmt.Sprintf("whole process, %d ops", ops))
	l.set("runtime.heap_live_mib", "MiB", float64(heapLive)/(1<<20), "after GC, end of load")
	l.set("admission.shed", "count", 0, "verified zero on every stack")
	var ds, fit, pre []float64
	for _, r := range recs {
		ds = append(ds, r.dataset.Seconds())
		fit = append(fit, r.fit.Seconds())
		pre = append(pre, r.prefill.Seconds())
	}
	l.set("setup.dataset_s", "s", median(ds), "median of set-ups")
	l.set("setup.train_s", "s", median(fit), "median of set-ups")
	l.set("setup.prefill_s", "s", median(pre), "median of set-ups")
	l.set("loadgen.lag_p90_ms", "ms", percentile(tp.lags, 90), fmt.Sprintf("n=%d", len(tp.lags)))
	l.set("loadgen.inflight_max", "count", float64(tp.inflight), from)
}

// replicaLayers fills the simulator split from replica runs. The
// layer share compares the replica's layer time with the manager's run
// time for the same jobs.
func replicaLayers(l *report, rt replicaTimes, model *modelSpy, runTotal time.Duration) {
	per := func(d time.Duration, n int) float64 { return ratio(us(d), float64(n)) }
	note := fmt.Sprintf("replica, %d jobs", rt.jobs)
	l.set("sim.sim_s_per_s", "1/s", rt.simSeconds/rt.loop.Seconds(), note)
	l.set("node.tick_us", "us", per(rt.node, rt.nodeCalls), fmt.Sprintf("n=%d", rt.nodeCalls))
	l.set("netsim.resolve_us", "us", per(rt.net, rt.netCalls), fmt.Sprintf("n=%d", rt.netCalls))
	l.set("storage.resolve_us", "us", per(rt.fs, rt.fsCalls), fmt.Sprintf("n=%d", rt.fsCalls))
	l.set("monitor.tick_us", "us", per(rt.monSelf, rt.monRounds), fmt.Sprintf("self, per sampling tick, n=%d", rt.monRounds))
	l.set("features.extract_us", "us", per(rt.extract, rt.extractCalls), fmt.Sprintf("n=%d", rt.extractCalls))
	l.set("ml.predict_us", "us", ratio(float64(model.nanos.Load())/1e3, float64(model.calls.Load())),
		fmt.Sprintf("n=%d", model.calls.Load()))
	layered := rt.net + rt.fs + rt.node + rt.monSelf + rt.observe
	l.set("trace.layers_share_pct", "%", 100*ratio(float64(layered), float64(runTotal)),
		fmt.Sprintf("sim+monitor+features+ml %.1f ms of manager run %.1f ms", ms(layered), ms(runTotal)))
}

// allocLayers fills the exact allocation counts.
func allocLayers(l *report, c allocCounts) {
	note := fmt.Sprintf("exact, fixed job %s", allocJob().req.Campaign)
	l.set("node.allocs_per_tick", "count", c.perNodeTick, note)
	l.set("monitor.allocs_per_tick", "count", c.perMonitorTick, note+", tap excluded")
	l.set("features.allocs_per_window", "count", c.perWindow, note)
}

// leakedGoroutines waits briefly for goroutines to wind down and
// returns how many more there are than at the start.
func leakedGoroutines(start int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-start)
}

// writeResult keeps the run's metrics with their notes and the
// environment stamp under the work directory.
func writeResult(o options, reports ...*report) error {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Note  string  `json:"note,omitempty"`
	}
	out := map[string]any{"env": envStamp(o)}
	m := map[string]entry{}
	for _, r := range reports {
		if r == nil {
			continue
		}
		for name, v := range r.metrics {
			m[name] = entry{Value: v.Value, Unit: v.Unit, Note: r.notes[name]}
		}
	}
	out["metrics"] = m
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)), b, 0o644)
}
