package main

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"hpas"
)

func TestPercentileKnownInputs(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); !near(got, 3) {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
	seq := make([]float64, 100)
	for i := range seq {
		seq[i] = float64(i + 1)
	}
	// Beta-weight symmetry: on 1..n the q and 1−q estimates sum to n+1.
	for _, p := range []float64{10, 25, 40} {
		if got := percentile(seq, p) + percentile(seq, 100-p); !near(got, 101) {
			t.Errorf("p%g + p%g of 1..100 = %g, want 101", p, 100-p, got)
		}
	}
	if got := percentile([]float64{7, 7, 7, 7}, 90); !near(got, 7) {
		t.Errorf("p90 of constant sample = %g", got)
	}
	if percentile(nil, 90) != 0 || percentile([]float64{4}, 90) != 4 {
		t.Error("empty sample must give 0 and a single sample itself")
	}
	if percentile(seq, 0) != 1 || percentile(seq, 100) != 100 {
		t.Error("p0 and p100 must be the extremes")
	}
	prev := 0.0
	for p := 5.0; p < 100; p += 5 {
		v := percentile(seq, p)
		if v <= prev {
			t.Fatalf("percentile not increasing at p%g", p)
		}
		prev = v
	}
	// Against weights integrated numerically from the Beta density
	// (at quantiles where the density is smooth on [0, 1]).
	xs := []float64{3, 9, 1, 12, 7, 5, 30, 2}
	for _, q := range []float64{0.25, 0.5, 0.75} {
		if got, want := percentile(xs, 100*q), hdByIntegration(xs, q); math.Abs(got-want) > 1e-6 {
			t.Errorf("p%g = %.9g, numeric Harrell–Davis = %.9g", 100*q, got, want)
		}
	}
}

// hdByIntegration is the Harrell–Davis estimate with each weight
// integrated by Simpson's rule.
func hdByIntegration(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp(lab - la - lb + (a-1)*math.Log(x) + (b-1)*math.Log(1-x))
	}
	est := 0.0
	for i := 0; i < n; i++ {
		lo, hi := float64(i)/float64(n), float64(i+1)/float64(n)
		const steps = 20000
		h := (hi - lo) / steps
		w := pdf(lo) + pdf(hi)
		for k := 1; k < steps; k++ {
			w += pdf(lo+float64(k)*h) * float64(2+2*(k%2))
		}
		est += w * h / 3 * s[i]
	}
	return est
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{5}, 5}, {[]float64{1, 100, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestFailedRatio(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 100, 0}, {1, 4, 0.25}, {3, 3, 1}, {0, 0, 0},
	} {
		if got := failedRatio(c.failed, c.attempted); got != c.want {
			t.Errorf("failedRatio(%d, %d) = %g, want %g", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	kids := []span{{Start: 10, End: 20}, {Start: 15, End: 30}, {Start: 40, End: 50}, {Start: 90, End: 120}}
	if got := covered(kids, 0, 100); got != 40 {
		t.Errorf("covered = %g, want 40 (10-30, 40-50, 90-100)", got)
	}
	spans := []span{
		{ID: 0, Parent: -1, Name: "a", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "b", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 40},
	}
	for _, lt := range selfTimes(spans) {
		want := map[string]float64{"a": 70e-6, "b": 40e-6}[lt.Name]
		if math.Abs(lt.Self-want) > 1e-12 {
			t.Errorf("self(%s) = %g ms, want %g", lt.Name, lt.Self, want)
		}
	}
}

func TestFrameDigestChecksSequence(t *testing.T) {
	d := newFrameDigest()
	for i := 0; i < 3; i++ {
		if err := d.add(hpas.StreamFrame{Seq: i, Type: "window", Data: []byte("{}")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.add(hpas.StreamFrame{Seq: 4, Type: "window"}); err == nil {
		t.Error("skipped seq accepted")
	}
	if err := newFrameDigest().add(hpas.StreamFrame{Seq: 0, Type: "gap"}); err == nil {
		t.Error("gap frame accepted")
	}
	a, b := newFrameDigest(), newFrameDigest()
	_ = a.add(hpas.StreamFrame{Seq: 0, Type: "window", Data: []byte(`{"x":1}`)})
	_ = b.add(hpas.StreamFrame{Seq: 0, Type: "window", Data: []byte(`{"x":2}`)})
	if a.h == b.h {
		t.Error("different bytes, same digest")
	}
}

func TestArrivalsAreSeededAndSpanTheRun(t *testing.T) {
	dur := 20 * time.Second
	a := arrivals(rand.New(rand.NewPCG(1, 2)), 4, dur)
	b := arrivals(rand.New(rand.NewPCG(1, 2)), 4, dur)
	c := arrivals(rand.New(rand.NewPCG(9, 2)), 4, dur)
	if len(a) != 80 {
		t.Fatalf("%d arrivals, want 80", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedule")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("arrivals out of order")
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds, same schedule")
	}
	if a[0] != 0 || a[len(a)-1] >= dur.Seconds() {
		t.Errorf("schedule spans [%g, %g], want [0, %g)", a[0], a[len(a)-1], dur.Seconds())
	}
}

func TestSeedOfIsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for role := roleRouter; role <= roleProbe; role++ {
		for run := 0; run < 4; run++ {
			for c := 0; c < 4; c++ {
				s := seedOf(7, role, run, c)
				if s <= 0 || seen[s] {
					t.Fatalf("seedOf(7, %d, %d, %d) = %d repeats or is not positive", role, run, c, s)
				}
				seen[s] = true
			}
		}
	}
}

// TestSmoke runs every workload for a second, and churn traced, through
// the full stack and correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service stack")
	}
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"diagnose", false}, {"churn", false}, {"churn", true}} {
		o := options{workload: c.workload, seed: 3, seconds: 1, trace: c.trace, work: t.TempDir()}
		res, err := bench(context.Background(), o)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Attempted < 1 || len(res.Metrics) == 0 {
			t.Fatalf("%s trace=%v: result %+v", c.workload, c.trace, res)
		}
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s trace=%v: %s = %g", c.workload, c.trace, name, m.Value)
			}
		}
	}
}
