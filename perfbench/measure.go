package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// classPercentile is the mean over trace classes of each class's p-th
// percentile. Workloads that alternate two trace classes of different
// cost report this instead of a pooled percentile, which would sit on
// the boundary between the classes and jump with the class mix.
func classPercentile(byClass map[string][]float64, p float64) float64 {
	if len(byClass) == 0 {
		return 0
	}
	var sum float64
	for _, xs := range byClass {
		sum += percentile(xs, p)
	}
	return sum / float64(len(byClass))
}

// interval is work of a given weight (events, sessions) done over
// [start, end].
type interval struct {
	start, end time.Time
	weight     float64
}

// sliceRate splits [from, from+window) into k equal slices, spreads each
// interval's weight evenly over its own span, and returns the median
// over slices of the weight per second, with the per-slice rates. A
// burst of interference from outside the benchmark then moves one slice,
// not the figure.
func sliceRate(ivs []interval, from time.Time, window time.Duration, k int) (float64, []float64) {
	slice := window / time.Duration(k)
	rates := make([]float64, k)
	for _, iv := range ivs {
		d := iv.end.Sub(iv.start)
		if d <= 0 {
			continue
		}
		for i := range rates {
			lo := from.Add(time.Duration(i) * slice)
			hi := lo.Add(slice)
			if iv.start.After(lo) {
				lo = iv.start
			}
			if iv.end.Before(hi) {
				hi = iv.end
			}
			if hi.After(lo) {
				rates[i] += iv.weight * float64(hi.Sub(lo)) / float64(d)
			}
		}
	}
	for i := range rates {
		rates[i] /= slice.Seconds()
	}
	return median(rates), rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sliceLen is the length of one slice of a measured window: rates and
// the heap peak are medians over slices.
const sliceLen = 2 * time.Second

func (c *runConfig) slices() int { return max(1, int(c.window()/sliceLen)) }

// heapSampler tracks the Go heap in use (live plus not yet swept
// objects) while it runs: its peak within each slice.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		start := time.Now()
		var peaks []float64
		note := func() {
			i := int(time.Since(start) / sliceLen)
			for len(peaks) <= i {
				peaks = append(peaks, 0)
			}
			peaks[i] = math.Max(peaks[i], readHeap(s))
		}
		note()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				note()
				h.done <- peaks
				return
			case <-tick.C:
				note()
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the median over slices of the
// peak heap in use, in MiB: the heap saws with the GC cycle, so the
// peak of the whole window is one sample of where a cycle happened to
// end, while the median peak over slices repeats from run to run.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	return median(<-h.done) / (1 << 20)
}

// runtimeSnap is a point-in-time read of the allocation and GC CPU
// counters.
type runtimeSnap struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// since returns allocated bytes and the GC share of CPU time between
// two snapshots.
func (a runtimeSnap) since(b runtimeSnap) (allocBytes, gcFrac float64) {
	allocBytes = a.allocBytes - b.allocBytes
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		gcFrac = (a.gcCPU - b.gcCPU) / cpu
	}
	return allocBytes, gcFrac
}

// waitGoroutines polls until the goroutine count is back to at most
// base, and reports the count it last saw when it is not within limit.
func waitGoroutines(base int, limit time.Duration) (int, bool) {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
