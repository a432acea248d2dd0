package main

import (
	"context"
	"sync"
	"time"
)

// execFunc runs one op. ran is false when the op had nothing to act on
// (a release that did not depart, or no idle grant); such ops are not
// counted or timed.
type execFunc func(ctx context.Context, o op) (ran bool, err error)

// phase is one run of the clients: latencies (ms) by op kind, how long
// it measured, the process CPU time it used, and the number of ops run
// and failed.
type phase struct {
	lat         samples
	dur, cpu    time.Duration
	ran, failed int64
}

// rounds is how many rounds a run's measured time is cut into. Each
// round runs every phase of the workload for its share of the time,
// and a metric is the median over the rounds of each round's value.
// The rounds spread every metric over the whole run, so a stretch of
// slow machine spoils a round or two, not the result.
const rounds = 10

// phases are one phase's rounds.
type phases []phase

// lat returns the median over the rounds of each round's q-quantile of
// kind's latencies.
func (ps phases) lat(kind string, q float64) float64 {
	groups := make([][]float64, len(ps))
	for i, p := range ps {
		groups[i] = p.lat[kind]
	}
	return grouped(groups, q)
}

// rate returns the median over the rounds of the ops run per second.
func (ps phases) rate() float64 {
	rates := make([]float64, len(ps))
	for i, p := range ps {
		rates[i] = float64(p.ran) / p.dur.Seconds()
	}
	return pct(rates, 0.5)
}

// cpuPerOp returns the median over the rounds of the process CPU time
// (ms) per op run.
func (ps phases) cpuPerOp() float64 {
	per := make([]float64, len(ps))
	for i, p := range ps {
		per[i] = ms(p.cpu) / float64(max(p.ran, 1))
	}
	return pct(per, 0.5)
}

// all returns kind's latencies from every round.
func (ps phases) all(kind string) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.lat[kind]...)
	}
	return out
}

// counts sums the ops run and failed over the rounds.
func (ps phases) counts() (ran, failed int64) {
	for _, p := range ps {
		ran += p.ran
		failed += p.failed
	}
	return ran, failed
}

// runClients runs `clients` goroutines, each pulling ops from next
// until it reports false, and folds their results. next returns the
// time an op's latency counts from.
func runClients(next func() (op, time.Time, bool), exec execFunc, onErr func(error)) phase {
	var mu sync.Mutex
	var wg sync.WaitGroup
	out := phase{lat: make(samples)}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := make(samples)
			var ran, failed int64
			for {
				o, from, ok := next()
				if !ok {
					break
				}
				done, err := exec(context.Background(), o)
				if !done && err == nil {
					continue
				}
				ran++
				if err != nil {
					failed++
					onErr(err)
					continue
				}
				s.add(o.Kind.String(), ms(time.Since(from)))
			}
			mu.Lock()
			out.lat.merge(s)
			out.ran += ran
			out.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs the clients back to back for dur: each op is sent as
// soon as its client's previous op returned, and timed from its send.
func closedLoop(gen *opGen, dur time.Duration, exec execFunc, onErr func(error)) phase {
	var mu sync.Mutex
	cpu := cpuTime()
	start := time.Now()
	out := runClients(func() (op, time.Time, bool) {
		mu.Lock()
		o := gen.next()
		mu.Unlock()
		now := time.Now()
		return o, now, now.Sub(start) < dur
	}, exec, onErr)
	out.dur, out.cpu = dur, cpuTime()-cpu
	return out
}

// warmOps is the length of the warm-up that precedes the measured
// phases.
const warmOps = 3000

// warmUp runs n ops through the clients, untimed, so the measured
// phases start from the churn's steady state rather than from the
// freshly filled tree, whose first admissions search far longer.
func warmUp(gen *opGen, n int, exec execFunc, onErr func(error)) phase {
	var mu sync.Mutex
	return runClients(func() (op, time.Time, bool) {
		mu.Lock()
		defer mu.Unlock()
		if n == 0 {
			return op{}, time.Time{}, false
		}
		n--
		return gen.next(), time.Now(), true
	}, exec, onErr)
}

// openLoop dispatches ops at their due times for dur, whatever the
// state of the clients: an op waits in the queue while both clients
// are busy, and is timed from when it was due. How late the
// dispatcher ran is reported as "late".
func openLoop(gen *opGen, dur time.Duration, exec execFunc, onErr func(error)) phase {
	type item struct {
		o   op
		due time.Time
	}
	// The queue holds every op a stall lets pile up; a 1 s stall at
	// the highest rate used is far below this.
	queue := make(chan item, 1<<16)
	late := make(samples)
	tfd, err := newTimerFD()
	if err != nil {
		onErr(err)
		return phase{lat: late, dur: dur, ran: 1, failed: 1}
	}
	defer tfd.close()
	cpu := cpuTime()
	start := time.Now()
	go func() {
		defer close(queue)
		for {
			o := gen.next()
			if o.Due >= dur {
				return
			}
			due := start.Add(o.Due)
			if err := tfd.sleep(time.Until(due)); err != nil {
				onErr(err)
			}
			late.add("late", ms(time.Since(due)))
			queue <- item{o, due}
		}
	}()
	out := runClients(func() (op, time.Time, bool) {
		it, ok := <-queue
		return it.o, it.due, ok
	}, exec, onErr)
	out.lat.merge(late)
	out.dur, out.cpu = dur, cpuTime()-cpu
	return out
}
