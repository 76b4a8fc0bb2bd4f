package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"hpas"
	"hpas/internal/apps"
	"hpas/internal/cluster"
	"hpas/internal/features"
	"hpas/internal/monitor"
	"hpas/internal/netsim"
	"hpas/internal/sim"
	"hpas/internal/storage"
	"hpas/internal/stream"
	"hpas/internal/trace"
	"hpas/serve"
)

// replicaTimes accumulates the simulator split over replica runs.
type replicaTimes struct {
	jobs       int
	simSeconds float64
	loop       time.Duration // engine loop wall time, re-timed extraction excluded

	net, fs, node, monSelf, observe, extract time.Duration
	netCalls, fsCalls, nodeCalls, monRounds  int
	extractCalls                             int

	// Heap allocations per call, in call order, filled only when
	// counting (see countAllocs).
	nodeAllocs, monAllocs, extractAllocs []uint64
}

// windowRing is an outside copy of a watched node's sliding window:
// the same rows stream.Pipeline hands to features.ExtractRows, so the
// extraction can be re-timed without touching the pipeline.
type windowRing struct {
	rings, rows   [][]float64
	head, count   int
	winN, strideN int
}

// push adds a sample and reports whether a window just completed, in
// which case rows holds it in chronological order.
func (w *windowRing) push(vals []float64) bool {
	for m, v := range vals {
		w.rings[m][w.head] = v
	}
	w.head = (w.head + 1) % w.winN
	w.count++
	if w.count < w.winN || (w.count-w.winN)%w.strideN != 0 {
		return false
	}
	for m, ring := range w.rings {
		n := copy(w.rows[m], ring[w.head:])
		copy(w.rows[m][n:], ring[:w.head])
	}
	return true
}

func newWindowRing(nmetrics int, window, stride, period float64) *windowRing {
	w := &windowRing{winN: max(1, int(window/period+0.5)), strideN: max(1, int(stride/period+0.5))}
	for m := 0; m < nmetrics; m++ {
		w.rings = append(w.rings, make([]float64, w.winN))
		w.rows = append(w.rows, make([]float64, w.winN))
	}
	return w
}

// runConfig flattens a job spec's campaign into the single run
// core.Campaign.RunContext performs.
func runConfig(spec hpas.StreamJobSpec) hpas.RunConfig {
	cfg := spec.Campaign.Base
	end := 0.0
	for _, ph := range spec.Campaign.Phases {
		for _, s := range ph.Specs {
			s.Start = ph.Start
			s.End = ph.Start + ph.Duration
			cfg.Anomalies = append(cfg.Anomalies, s)
		}
		end = max(end, ph.Start+ph.Duration)
	}
	if cfg.FixedSeconds < end {
		cfg.FixedSeconds = end
	}
	return cfg
}

// replica runs one job's simulation outside the service, assembled
// from the same parts core.RunContext uses, timing each layer call in
// cluster.Tick's order. The monitor tap feeds a stream.Pipeline built
// on det, as the manager does. It returns every node's monitor output
// and the pipeline's messages. With count set, each layer call is also
// bracketed by exact allocation counts.
func replica(spec hpas.StreamJobSpec, det *hpas.Detector, rt *replicaTimes, count bool) ([]*trace.Set, []hpas.StreamMessage, error) {
	cfg := runConfig(spec)
	if cfg.FixedSeconds <= 0 {
		return nil, nil, fmt.Errorf("replica: job has no fixed duration")
	}
	ccfg := cfg.Cluster
	if cfg.Seed != 0 {
		ccfg.Seed = cfg.Seed
	}
	c := cluster.New(ccfg)
	dt := cfg.DT
	if dt <= 0 {
		dt = sim.DefaultDT
	}
	period := cfg.SamplePeriod
	if period <= 0 {
		period = 1
	}
	noise := cfg.Noise
	if noise == 0 {
		noise = 0.01
	}

	var msgs []hpas.StreamMessage
	pcfg := spec.Pipeline
	pcfg.Detector = det
	pcfg.Emit = func(m stream.Message) { msgs = append(msgs, m) }
	pipe, err := stream.NewPipeline(pcfg)
	if err != nil {
		return nil, nil, err
	}
	window := pcfg.Window
	if window <= 0 {
		window = det.Window
	}
	stride := pcfg.Stride
	if stride <= 0 {
		stride = window
	}
	watch := map[int]bool{}
	for _, n := range pcfg.Nodes {
		watch[n] = true
	}
	if len(watch) == 0 {
		watch[0] = true
	}
	rings := map[int]*windowRing{}

	var (
		inTap   time.Duration // tap time inside the current monitor tick
		retime  time.Duration // re-timed extraction, excluded from the loop
		tapped  bool
		tapMall uint64
	)
	tap := func(s monitor.Sample) {
		tapped = true
		var m0 uint64
		if count {
			m0 = mallocs()
		}
		t0 := time.Now()
		pipe.Observe(s)
		d := time.Since(t0)
		rt.observe += d
		inTap += d
		if watch[s.Node] {
			r0 := time.Now()
			w := rings[s.Node]
			if w == nil {
				w = newWindowRing(len(s.Values), window, stride, s.Period)
				rings[s.Node] = w
			}
			if w.push(s.Values) {
				var a0 uint64
				if count {
					a0 = mallocs()
				}
				x0 := time.Now()
				features.ExtractRows(s.Names, w.rows)
				rt.extract += time.Since(x0)
				if count {
					rt.extractAllocs = append(rt.extractAllocs, mallocs()-a0)
				}
				rt.extractCalls++
			}
			d = time.Since(r0)
			retime += d
			inTap += d
		}
		if count {
			tapMall += mallocs() - m0
		}
	}
	mon := monitor.NewWithOptions(c, period, noise, ccfg.Seed+0xa0b1,
		monitor.Options{IncludeMemBW: cfg.MemBWCounter, Tap: tap})

	clusterTick := func(now, dt float64) {
		var flows []*netsim.Flow
		for i := 0; i < c.NumNodes(); i++ {
			for _, p := range c.Node(i).Procs() {
				if fs, ok := p.(cluster.FlowSource); ok {
					flows = append(flows, fs.Flows(now)...)
				}
			}
		}
		t0 := time.Now()
		c.Net().Resolve(flows)
		rt.net += time.Since(t0)
		rt.netCalls++

		var clients []cluster.Client
		var demands []storage.Demand
		for i := 0; i < c.NumNodes(); i++ {
			for _, p := range c.Node(i).Procs() {
				if cl, ok := p.(cluster.Client); ok {
					clients = append(clients, cl)
					demands = append(demands, cl.IODemand(now))
				}
			}
		}
		if len(clients) > 0 {
			t0 = time.Now()
			grants := c.FS().Resolve(demands, dt)
			rt.fs += time.Since(t0)
			rt.fsCalls++
			for i, cl := range clients {
				cl.IOGrant(grants[i])
			}
		}

		for i := 0; i < c.NumNodes(); i++ {
			n := c.Node(i)
			var m0 uint64
			if count {
				m0 = mallocs()
			}
			t0 = time.Now()
			n.Tick(now, dt)
			rt.node += time.Since(t0)
			if count {
				rt.nodeAllocs = append(rt.nodeAllocs, mallocs()-m0)
			}
			rt.nodeCalls++
		}
	}
	monTick := func(now, dt float64) {
		inTap, tapped, tapMall = 0, false, 0
		var m0 uint64
		if count {
			m0 = mallocs()
		}
		t0 := time.Now()
		mon.Tick(now, dt)
		d := time.Since(t0)
		if count && tapped {
			rt.monAllocs = append(rt.monAllocs, mallocs()-m0-tapMall)
		}
		if tapped {
			rt.monSelf += d - inTap
			rt.monRounds++
		}
	}

	eng := sim.New(dt)
	eng.Add(sim.TickerFunc(clusterTick))
	eng.Add(sim.TickerFunc(monTick))
	for _, s := range cfg.Anomalies {
		if err := hpas.Inject(c, s); err != nil {
			return nil, nil, err
		}
	}
	if cfg.App != "" {
		profile, ok := apps.ByName(cfg.App)
		if !ok {
			return nil, nil, fmt.Errorf("replica: unknown app %q", cfg.App)
		}
		if cfg.Iterations > 0 {
			profile.Iterations = cfg.Iterations
		}
		if cfg.AppScale > 0 {
			profile = profile.Scaled(cfg.AppScale)
		}
		nodes := cfg.AppNodes
		if nodes == nil {
			for i := 0; i < min(4, c.NumNodes()); i++ {
				nodes = append(nodes, i)
			}
		}
		rpn := cfg.RanksPerNode
		if rpn <= 0 {
			rpn = ccfg.Machine.PhysCores()
		}
		apps.Launch(c, profile, nodes, rpn)
	}

	start := time.Now()
	eng.RunUntil(func() bool { return false }, cfg.FixedSeconds)
	rt.loop += time.Since(start) - retime
	rt.simSeconds += eng.Now()
	rt.jobs++

	pipe.Flush()
	if err := pipe.Err(); err != nil {
		return nil, nil, err
	}
	sets := make([]*trace.Set, c.NumNodes())
	for i := range sets {
		sets[i] = mon.NodeSet(i)
	}
	return sets, msgs, nil
}

// setsBytes encodes monitor output exactly: per node, every series'
// name and the bit pattern of each value, in sorted name order.
func setsBytes(sets []*trace.Set) []byte {
	var b bytes.Buffer
	for _, set := range sets {
		for _, name := range set.Names() {
			b.WriteString(name)
			b.WriteByte(0)
			for _, v := range set.Get(name).Values {
				_ = binary.Write(&b, binary.LittleEndian, math.Float64bits(v)) // bytes.Buffer writes cannot fail
			}
		}
		b.WriteByte(1)
	}
	return b.Bytes()
}

// messagesDigest is the digest a follower computes for a job whose
// pipeline emitted msgs and which then ended done.
func messagesDigest(msgs []hpas.StreamMessage) (uint64, error) {
	dig := newFrameDigest()
	all := append(append([]hpas.StreamMessage(nil), msgs...), hpas.StreamMessage{Type: "done", State: hpas.StreamJobDone})
	for i, m := range all {
		data, err := json.Marshal(m)
		if err != nil {
			return 0, err
		}
		if err := dig.add(hpas.StreamFrame{Seq: i, Type: m.Type, Data: data}); err != nil {
			return 0, err
		}
	}
	return dig.h, nil
}

// checkReplicas runs the replica over jobs that the service ran and
// fails unless each replica's monitor output is byte-identical to
// core.Run's for the same configuration and its pipeline messages
// digest to what the job's live follower received.
func checkReplicas(jobs []*jobRec, sb *serve.Server, det *hpas.Detector, rt *replicaTimes) error {
	for _, j := range jobs {
		spec, err := sb.BuildSpec(j.spec.req)
		if err != nil {
			return err
		}
		sets, msgs, err := replica(spec, det, rt, false)
		if err != nil {
			return fmt.Errorf("replica of %s: %w", j.gid, err)
		}
		ref, err := hpas.Run(runConfig(spec))
		if err != nil {
			return fmt.Errorf("core.Run of %s: %w", j.gid, err)
		}
		if !bytes.Equal(setsBytes(sets), setsBytes(ref.Metrics)) {
			return fmt.Errorf("replica of %s: monitor output differs from core.Run", j.gid)
		}
		d, err := messagesDigest(msgs)
		if err != nil {
			return err
		}
		if d != j.digest {
			return fmt.Errorf("replica of %s: pipeline messages differ from the live stream", j.gid)
		}
	}
	return nil
}

// allocJob is the fixed job the allocation counts are taken on, so
// the counts do not depend on the workload seed.
func allocJob() jobSpec { return referenceJobs()[2] }

// allocCounts are exact mean heap allocations per call.
type allocCounts struct {
	perNodeTick, perMonitorTick, perWindow float64
}

// countAllocs runs the replica of allocJob twice with every layer call
// bracketed by allocation counts. Another goroutine allocating inside
// a bracket can only add to that call's count, and never at the same
// call in both passes, so the per-call minimum of the two passes is
// the call's own count and the totals repeat exactly run to run.
func countAllocs(sb *serve.Server, det *hpas.Detector) (allocCounts, error) {
	spec, err := sb.BuildSpec(allocJob().req)
	if err != nil {
		return allocCounts{}, err
	}
	var passes [2]replicaTimes
	for i := range passes {
		runtime.GC()
		if _, _, err := replica(spec, det, &passes[i], true); err != nil {
			return allocCounts{}, err
		}
	}
	mean := func(a, b []uint64) float64 {
		if len(a) != len(b) || len(a) == 0 {
			return 0
		}
		var sum uint64
		for i := range a {
			sum += min(a[i], b[i])
		}
		return float64(sum) / float64(len(a))
	}
	a, b := passes[0], passes[1]
	return allocCounts{
		perNodeTick:    mean(a.nodeAllocs, b.nodeAllocs),
		perMonitorTick: mean(a.monAllocs, b.monAllocs),
		perWindow:      mean(a.extractAllocs, b.extractAllocs),
	}, nil
}
