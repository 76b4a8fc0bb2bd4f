package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the Harrell–Davis estimate of the p-th percentile
// (0..100) of xs: a weighted mean of every order statistic, weighted by
// the Beta((n+1)q, (n+1)(1−q)) distribution of the q-quantile's rank.
// Unlike a single order statistic it moves smoothly as samples cross
// it, so a tail whose samples fall in two clusters (queued or not,
// preempted or not) does not jump between the clusters from one run to
// the next. It returns 0 for an empty sample and the extremes at 0 and
// 100.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if p <= 0 || n == 1 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	q := p / 100
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cdf := 1.0
		if i < n {
			cdf = regIncBeta(a, b, float64(i)/float64(n))
		}
		est += (cdf - prev) * s[i-1]
		prev = cdf
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by its continued fraction (Lentz's method), using the symmetry
// I_x(a, b) = 1 − I_{1−x}(b, a) where the fraction converges slowly.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log1p(-x)) / a
	const tiny = 1e-300
	f, c, d := 1.0, 1.0, 0.0
	for m := 0; m <= 10000; m++ {
		var num float64
		switch {
		case m == 0:
			num = 1
		case m%2 == 0:
			k := float64(m / 2)
			num = k * (b - k) * x / ((a + 2*k - 1) * (a + 2*k))
		default:
			k := float64((m - 1) / 2)
			num = -(a + k) * (a + b + k) * x / ((a + 2*k) * (a + 2*k + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < 1e-12 {
			break
		}
	}
	return front * (f - 1)
}

// ratio is num/den, or 0 when den is 0 (an empty phase counts as
// nothing observed, never as a division error).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// failedRatio is the share of attempted operations that failed: errors,
// sheds, jobs that did not end done, and lost, duplicated or gapped
// frames all count against the attempted total.
func failedRatio(failed, attempted int) float64 {
	return ratio(float64(failed), float64(attempted))
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// attributes to a phase.
type runtimeSample struct {
	allocObjects uint64
	gcCPU        float64
	totalCPU     float64
	heapLive     uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(i int) metrics.Value { return ss[i].Value }
	var r runtimeSample
	if v := val(0); v.Kind() == metrics.KindUint64 {
		r.allocObjects = v.Uint64()
	}
	if v := val(1); v.Kind() == metrics.KindFloat64 {
		r.gcCPU = v.Float64()
	}
	if v := val(2); v.Kind() == metrics.KindFloat64 {
		r.totalCPU = v.Float64()
	}
	if v := val(3); v.Kind() == metrics.KindUint64 {
		r.heapLive = v.Uint64()
	}
	return r
}

// liveHeap forces a full collection and returns the bytes still live.
// Two cycles let objects freed by finalizers in the first one go too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readRuntime().heapLive
}

// mallocs returns the exact cumulative heap allocation count.
// runtime.ReadMemStats stops the world and folds in every P's cached
// tiny-allocation count, so two reads bracket a call's allocations
// exactly as long as no other goroutine allocates in between.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// median is the sample median: the middle value, or the mean of the
// two middle values. It summarizes a handful of repeated figures (set-ups,
// rounds, bursts), where one outlier must not pull the result.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
