package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// serve-http parameters.
const (
	serveShards = 2
	// serveRate is the open-loop Poisson arrival rate (ops/s), about a
	// quarter of the closed-loop capacity of the 2-client loop on a
	// 2-vCPU machine. BENCHMARK.json states it too.
	serveRate = 1750.0
	// serveDepartRef scales departures: a release fires when
	// U*serveDepartRef < live tenants. It sits above the ~450 tenants
	// two full 512-server trees hold, so departures stay proportional
	// to the live count.
	serveDepartRef = 600.0
	// serveFillRejects ends the pre-fill: admissions have started to
	// reject once this many have.
	serveFillRejects = 8
	// clients is the number of client goroutines and connections.
	clients = 2
)

// serveMix is the churn mix: admit, batch, resize, release, get.
var serveMix = mix{0.35, 0, 0.25, 0.30, 0.10}

// Span headers carry the client's span to the server-side decorator.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Req"
)

// capacityReasons are the rejection reasons the churn mix expects; any
// other rejection is a failure.
var capacityReasons = map[string]bool{
	string(guarantee.NoSlots):               true,
	string(guarantee.InsufficientBandwidth): true,
	string(guarantee.InsufficientResources): true,
	string(guarantee.NoPlacement):           true,
}

// httpBench is one served service and its client.
type httpBench struct {
	svc    guarantee.Service // the service itself, never the traced decorator
	tr     *tracer
	srv    *http.Server
	served chan struct{}
	tport  *http.Transport
	client *http.Client
	base   string
	pool   []*tag.Graph
	bodies [][]byte // admit request body per pool entry
	live   liveSet
	stats  counts
	reqs   atomic.Int64 // request ids for spans
}

// runServeHTTP runs serve-http. A traced run also measures the WAL
// layer, in a segment of its own after the HTTP passes.
func runServeHTTP(cfg config) (*outcome, error) {
	out, err := runPasses(cfg, serveHTTPPass)
	if err != nil || !cfg.trace {
		return out, err
	}
	return out, walSegment(cfg, out)
}

// newHTTPBench builds the service, serves it on a loopback listener and
// pre-fills it through HTTP until admissions start to reject.
func newHTTPBench(cfg config, tr *tracer, pool []*tag.Graph, bodies [][]byte) (*httpBench, error) {
	spec := topology.MediumSpec()
	if cfg.small {
		spec = topology.SmallSpec()
	}
	svc, err := guarantee.New(spec, guarantee.WithAlgorithm("cm"), guarantee.WithShards(serveShards))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inner := guarantee.NewServer(traced(svc, tr)).Handler()
	handler := inner
	if tr != nil {
		// Hand the client's span to the decorator through the
		// request context the server passes to the Service.
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if id, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
				req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
				r = r.WithContext(withSpan(r.Context(), id, req))
			}
			inner.ServeHTTP(w, r)
		})
	}
	b := &httpBench{
		svc:    svc,
		tr:     tr,
		srv:    &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		pool:   pool,
		bodies: bodies,
	}
	b.tport = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	b.client = &http.Client{Transport: b.tport}
	go func() {
		defer close(b.served)
		b.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed after Shutdown
	}()

	gen := newOpGen(setupSeed, 0, mix{1}, len(pool), 1, 0)
	for rejects := 0; rejects < serveFillRejects; {
		admitted, err := b.admit(context.Background(), gen.next())
		if err != nil {
			b.close()
			return nil, fmt.Errorf("pre-fill: %w", err)
		}
		if !admitted {
			rejects++
		}
	}
	return b, nil
}

// close stops the server and waits for it.
func (b *httpBench) close() {
	b.tport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx) //nolint:errcheck // the wait below is what matters
	<-b.served
}

// call sends one request and reads the whole response.
func (b *httpBench) call(ctx context.Context, name, method, path string, body []byte) (int, []byte, error) {
	req := b.reqs.Add(1)
	id := b.tr.begin(name, 0, req)
	r, err := http.NewRequestWithContext(ctx, method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if id != 0 {
		r.Header.Set(spanHeader, strconv.Itoa(id))
		r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := b.client.Do(r)
	if err != nil {
		b.tr.end(id)
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.tr.end(id)
	return resp.StatusCode, data, err
}

// rejection classifies a non-success response: nil for an expected
// capacity rejection (counted by reason), an error otherwise.
func (b *httpBench) rejection(op string, status int, data []byte) error {
	var e struct {
		Error struct {
			Reason string `json:"reason"`
		} `json:"error"`
	}
	if status == http.StatusConflict && json.Unmarshal(data, &e) == nil && capacityReasons[e.Error.Reason] {
		b.stats.add("reject."+e.Error.Reason, 1)
		return nil
	}
	return fmt.Errorf("%s: unexpected HTTP %d: %.200s", op, status, data)
}

// admit posts one admission; it reports whether the tenant was admitted.
func (b *httpBench) admit(ctx context.Context, o op) (bool, error) {
	body := b.bodies[o.Pools[0]]
	status, data, err := b.call(ctx, "http.admit", http.MethodPost, "/v1/guarantees", body)
	if err != nil {
		return false, err
	}
	b.stats.add("admit.attempts", 1)
	b.stats.add("admit.req_bytes", int64(len(body)))
	b.stats.add("admit.resp_bytes", int64(len(data)))
	if status != http.StatusCreated {
		return false, b.rejection("admit", status, data)
	}
	var g struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &g); err != nil || g.ID == "" {
		return false, fmt.Errorf("admit: bad grant body %.200s", data)
	}
	b.stats.add("admit.admitted", 1)
	b.live.add(&tenant{id: g.ID, graph: b.pool[o.Pools[0]]})
	return true, nil
}

// exec runs one op; ran is false when the op had nothing to act on (a
// release that did not depart, or no idle grant).
func (b *httpBench) exec(ctx context.Context, o op) (ran bool, err error) {
	switch o.Kind {
	case opAdmit:
		_, err := b.admit(ctx, o)
		return true, err
	case opResize:
		t := b.live.take(o.Pick, false)
		if t == nil {
			return false, nil
		}
		defer b.live.put(t)
		g, err := resized(t.graph, o)
		if err != nil {
			return true, err
		}
		body, err := json.Marshal(map[string]*tag.Graph{"tag": g})
		if err != nil {
			return true, err
		}
		status, data, err := b.call(ctx, "http.resize", http.MethodPost, "/v1/guarantees/"+t.id+"/resize", body)
		if err != nil {
			return true, err
		}
		if status == http.StatusOK {
			t.graph = g
			return true, nil
		}
		return true, b.rejection("resize", status, data)
	case opRelease:
		if !departs(o, b.live.len(), serveDepartRef) {
			return false, nil
		}
		t := b.live.take(o.Pick, true)
		if t == nil {
			return false, nil
		}
		return true, b.release(ctx, t)
	case opGet:
		t := b.live.take(o.Pick, false)
		if t == nil {
			return false, nil
		}
		defer b.live.put(t)
		status, data, err := b.call(ctx, "http.get", http.MethodGet, "/v1/guarantees/"+t.id, nil)
		if err != nil {
			return true, err
		}
		var g struct {
			ID string `json:"id"`
		}
		if status != http.StatusOK || json.Unmarshal(data, &g) != nil || g.ID != t.id {
			return true, fmt.Errorf("get %s: HTTP %d: %.200s", t.id, status, data)
		}
		return true, nil
	}
	return false, fmt.Errorf("unexpected op kind %v", o.Kind)
}

func (b *httpBench) release(ctx context.Context, t *tenant) error {
	status, data, err := b.call(ctx, "http.release", http.MethodDelete, "/v1/guarantees/"+t.id, nil)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("release %s: HTTP %d: %.200s", t.id, status, data)
	}
	return nil
}

// serveHTTPPass runs serve-http once.
func serveHTTPPass(cfg config, tr *tracer, reps int, watch bool) (*outcome, error) {
	pool := tenantPool()
	bodies := make([][]byte, len(pool))
	for i, g := range pool {
		body, err := json.Marshal(map[string]*tag.Graph{"tag": g})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	b, setup, err := medianSetup(reps,
		func() (*httpBench, error) { return newHTTPBench(cfg, tr, pool, bodies) },
		func(b *httpBench) { b.close() })
	if err != nil {
		return nil, err
	}
	defer b.close()

	var errs errLog
	warm := warmUp(newOpGen(cfg.seed, 3, serveMix, len(pool), 1, 0), warmOps, b.exec, errs.log)
	b.stats.reset()
	tr.reset()
	out := &outcome{perLayer: make(map[string]metric)}
	var w *runtimeWatch
	if watch {
		w = watchRuntime()
	}
	before := b.svc.Stats()
	// Each round runs the open loop, then the closed loop, for half the
	// round each.
	step := time.Duration(cfg.seconds * float64(time.Second) / (2 * rounds))
	var open, closed phases
	for r := int64(0); r < rounds; r++ {
		open = append(open, openLoop(newOpGen(cfg.seed, 10+r, serveMix, len(pool), 1, serveRate), step, b.exec, errs.log))
		closed = append(closed, closedLoop(newOpGen(cfg.seed, 20+r, serveMix, len(pool), 1, 0), step, b.exec, errs.log))
	}
	if w != nil {
		w.finish(out.perLayer)
	}
	after := b.svc.Stats()
	openRan, openFailed := open.counts()
	closedRan, closedFailed := closed.counts()
	out.attempted = warm.ran + openRan + closedRan
	out.failed = warm.failed + openFailed + closedFailed

	attempts := b.stats.get("admit.attempts")
	accept := float64(b.stats.get("admit.admitted")) / float64(max(attempts, 1))
	// The latencies and the rate come from the closed loop, each request
	// timed from its send: with both clients busy the CPUs never idle,
	// so the numbers do not hang on how fast an idle virtual CPU wakes,
	// which on a shared host moved the open loop's p50 by half between
	// runs. The CPU cost per op comes from the open loop, at the fixed
	// offered rate. The open-loop latencies from when each request was
	// due, and the closed-loop p99s, are per-layer metrics.
	out.endToEnd = endToEnd(setup, closed.lat("admit", 0.5), closed.lat("resize", 0.5),
		closed.rate(), open.cpuPerOp(), accept)

	if tr != nil {
		out.perLayer["http.admit_self_p50_ms"] = metric{pct(tr.selfTimes("http.admit"), 0.5), "ms"}
		out.perLayer["http.resize_self_p50_ms"] = metric{pct(tr.selfTimes("http.resize"), 0.5), "ms"}
		n := float64(max(attempts, 1))
		out.perLayer["http.req_bytes"] = metric{float64(b.stats.get("admit.req_bytes")) / n, "bytes"}
		out.perLayer["http.resp_bytes"] = metric{float64(b.stats.get("admit.resp_bytes")) / n, "bytes"}
		serviceLayer(out.perLayer, tr)
		for _, r := range []string{"no_slots", "insufficient_bandwidth", "no_feasible_placement"} {
			out.perLayer["reject."+r] = metric{float64(b.stats.get("reject." + r)), "count"}
		}
		out.perLayer["cluster.failovers_per_admit"] = metric{
			float64(after.Failovers-before.Failovers) / float64(max(attempts, 1)), "count"}
		out.perLayer["http.admit_p99_ms"] = metric{closed.lat("admit", 0.99), "ms"}
		out.perLayer["http.resize_p99_ms"] = metric{closed.lat("resize", 0.99), "ms"}
		out.perLayer["gen.late_p99_ms"] = metric{pct(open.all("late"), 0.99), "ms"}
		out.perLayer["gen.open_admit_p50_ms"] = metric{open.lat("admit", 0.5), "ms"}
		out.perLayer["gen.open_admit_p99_ms"] = metric{open.lat("admit", 0.99), "ms"}
	}

	// Drain through HTTP, then measure allocations on the empty
	// service and check that it is empty again.
	for _, t := range b.live.drain() {
		if err := b.release(context.Background(), t); err != nil {
			out.violations = append(out.violations, "drain: "+err.Error())
			break
		}
	}
	if tr != nil {
		allocMetrics(out.perLayer, b.svc, pool, cfg.seed)
	}
	out.violations = append(out.violations, drainedChecks(b.svc)...)
	return out, nil
}

// serviceLayer fills the service.* latencies from the decorator's spans.
func serviceLayer(m map[string]metric, tr *tracer) {
	admits := tr.durations("service.admit")
	m["service.admit_p50_ms"] = metric{pct(admits, 0.5), "ms"}
	m["service.admit_p99_ms"] = metric{pct(admits, 0.99), "ms"}
	m["service.resize_p99_ms"] = metric{pct(tr.durations("service.resize"), 0.99), "ms"}
	m["service.release_p50_ms"] = metric{pct(tr.durations("service.release"), 0.5), "ms"}
}

// allocSegmentSize is the number of admissions the 1-client
// allocation segment makes.
const allocSegmentSize = 100

// allocMetrics admits allocSegmentSize tenants from one client on svc,
// reports heap allocations per admit, and releases them again.
func allocMetrics(m map[string]metric, svc guarantee.Service, pool []*tag.Graph, seed int64) {
	gen := newOpGen(seed, 9, mix{1}, len(pool), 1, 0)
	reqs := make([]guarantee.Request, allocSegmentSize)
	for i := range reqs {
		reqs[i] = guarantee.Request{ID: int64(i + 1), Graph: pool[gen.next().Pools[0]]}
	}
	grants := make([]guarantee.Grant, 0, allocSegmentSize)
	allocs, bytes := allocSegment(allocSegmentSize, func(i int) {
		if g, err := svc.Admit(context.Background(), reqs[i]); err == nil {
			grants = append(grants, g)
		}
	})
	for _, g := range grants {
		g.Release()
	}
	m["service.allocs_per_admit"] = metric{allocs, "count"}
	m["service.bytes_per_admit"] = metric{bytes, "bytes"}
}

// reservedResidue bounds the reserved bandwidth (Mbps) a drained shard
// may still show: the gauge is a running float sum of every grant's
// reservations and releases, so thousands of them leave rounding
// residue around 1e-8 Mbps rather than an exact zero.
const reservedResidue = 1e-6

// drainedChecks verifies a service with every grant released: no load
// on any shard, and every admission matched by a release.
func drainedChecks(svc guarantee.Service) []string {
	var v []string
	for i, l := range svc.Loads() {
		if l.SlotsUsed != 0 || l.Tenants != 0 || math.Abs(l.ReservedMbps) > reservedResidue {
			v = append(v, fmt.Sprintf("shard %d not empty after drain: %+v", i, l))
		}
	}
	if st := svc.Stats(); st.Admitted != st.Released || st.Failed != 0 {
		v = append(v, fmt.Sprintf("after drain: admitted %d, released %d, failed %d", st.Admitted, st.Released, st.Failed))
	}
	return v
}
