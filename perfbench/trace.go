package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/tag"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the id of the span that caused this one (0 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (1-based; 0 when untraced).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// reset drops the spans recorded so far (those of set-up).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// durations returns the durations (ms) of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// self returns each span's duration minus the time its child spans
// cover (ms), indexed like spans.
func (t *tracer) self() []float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make([]float64, len(t.spans))
	for i, s := range t.spans {
		out[i] = float64(s.End-s.Start-child[i+1]) / 1e6
	}
	return out
}

// selfTimes returns the self times (ms) of every span called name.
func (t *tracer) selfTimes(name string) []float64 {
	var out []float64
	for i, v := range t.self() {
		if t.spans[i].Name == name {
			out = append(out, v)
		}
	}
	return out
}

// layerSelf sums self time by span name (ms): each layer's share.
func (t *tracer) layerSelf() map[string]float64 {
	out := make(map[string]float64)
	for i, v := range t.self() {
		out[t.spans[i].Name] += v
	}
	return out
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the caller's span through a context.
type spanKey struct{}

type spanRef struct {
	id  int
	req int64
}

func withSpan(ctx context.Context, id int, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// tracedService times the Service calls a workload (or the HTTP
// server) makes, and hands out grants that time theirs.
type tracedService struct {
	guarantee.Service
	tr *tracer
}

func (s *tracedService) Admit(ctx context.Context, req guarantee.Request) (guarantee.Grant, error) {
	ref := spanFrom(ctx)
	id := s.tr.begin("service.admit", ref.id, ref.req)
	g, err := s.Service.Admit(ctx, req)
	s.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedGrant{Grant: g, tr: s.tr}, nil
}

func (s *tracedService) AdmitBatch(ctx context.Context, reqs []guarantee.Request) ([]guarantee.Grant, error) {
	ref := spanFrom(ctx)
	id := s.tr.begin("service.admit_batch", ref.id, ref.req)
	gs, err := s.Service.AdmitBatch(ctx, reqs)
	s.tr.end(id)
	for i, g := range gs {
		if g != nil {
			gs[i] = &tracedGrant{Grant: g, tr: s.tr}
		}
	}
	return gs, err
}

// tracedGrant times a grant's Resize and Release.
type tracedGrant struct {
	guarantee.Grant
	tr *tracer
}

func (g *tracedGrant) Resize(ctx context.Context, newGraph *tag.Graph) error {
	ref := spanFrom(ctx)
	id := g.tr.begin("service.resize", ref.id, ref.req)
	err := g.Grant.Resize(ctx, newGraph)
	g.tr.end(id)
	return err
}

func (g *tracedGrant) Release() {
	id := g.tr.begin("service.release", 0, 0)
	g.Grant.Release()
	g.tr.end(id)
}

// inner returns the service's own grant behind a traced one:
// Enforcement.SetDemand accepts only grants its service issued.
func inner(g guarantee.Grant) guarantee.Grant {
	if t, ok := g.(*tracedGrant); ok {
		return t.Grant
	}
	return g
}

// traced wraps svc when tr is non-nil.
func traced(svc guarantee.Service, tr *tracer) guarantee.Service {
	if tr == nil {
		return svc
	}
	return &tracedService{Service: svc, tr: tr}
}
