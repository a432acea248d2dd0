package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// pct returns the p-quantile (0 < p <= 1) of xs by nearest rank; 0 for
// an empty slice.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean returns the mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// samples collects latencies (ms) by op kind. Each client goroutine
// owns one; merge folds them after the clients return.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// grouped returns the median over groups of each group's q-quantile.
func grouped(groups [][]float64, q float64) float64 {
	qs := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			qs = append(qs, pct(g, q))
		}
	}
	return pct(qs, 0.5)
}

func (s samples) merge(o samples) {
	for k, v := range o {
		s[k] = append(s[k], v...)
	}
}

// counts tallies outcomes by name under a lock.
type counts struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *counts) add(name string, n int64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += n
	c.mu.Unlock()
}

func (c *counts) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

func (c *counts) get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// cpuTime returns the user plus system CPU time the process has used.
// Time the host takes the machine's CPUs away (steal) is not in it, so
// it moves far less with the load of other tenants of a shared host
// than wall-clock time does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeWatch measures the Go runtime over a segment: GC cycles and
// pause time from MemStats deltas, and the peak heap from a sampler.
type runtimeWatch struct {
	start runtime.MemStats
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64
}

// watchRuntime starts the heap sampler; call finish to stop it.
func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&w.start)
	w.peak = w.start.HeapAlloc
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				w.mu.Lock()
				w.peak = max(w.peak, ms.HeapAlloc)
				w.mu.Unlock()
			}
		}
	}()
	return w
}

// finish stops the sampler and reports the segment's runtime metrics.
func (w *runtimeWatch) finish(m map[string]metric) {
	close(w.stop)
	<-w.done
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m["go.gc_cycles"] = metric{float64(end.NumGC - w.start.NumGC), "count"}
	m["go.gc_pause_total_ms"] = metric{float64(end.PauseTotalNs-w.start.PauseTotalNs) / 1e6, "ms"}
	m["go.heap_peak_bytes"] = metric{float64(max(w.peak, end.HeapAlloc)), "bytes"}
}

// allocSegment reports the heap allocations of n calls of f.
func allocSegment(n int, f func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// medianSetup runs set-up reps times, discarding each instance before
// building the next and keeping the last, and returns the median set-up time.
func medianSetup[T any](reps int, build func() (T, error), discard func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(cur)
		}
		runtime.GC()
		start := time.Now()
		next, err := build()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		cur = next
	}
	runtime.GC()
	return cur, pct(times, 0.5), nil
}

// errLog prints the first few operation errors to stderr; the count
// of failures is kept by the caller.
type errLog struct {
	mu sync.Mutex
	n  int
}

func (l *errLog) log(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n++; l.n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}
