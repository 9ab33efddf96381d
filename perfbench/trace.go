package main

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/dist"
	"github.com/auditgames/sag/internal/game"
	"github.com/auditgames/sag/internal/history"
	"github.com/auditgames/sag/internal/server"
)

// layer names the module a span was recorded around.
type layer uint8

const (
	layerServer  layer = iota // Handler().ServeHTTP
	layerHistory              // Estimator.FutureRates
	layerGame                 // Config.SSESolve → game.SolveOnlineSSECtx
)

// span is one timed call into a layer, in nanoseconds since the tracer's
// epoch. Spans stay in memory until the run ends.
type span struct {
	layer      layer
	start, end int64
	// server spans
	path  string
	bytes int
	head  []byte // start of the response body (the access decision)
	// game spans
	lps, iters int
	coverage   []float64
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer records spans around the server's public seams. Recording is off
// until on is set, so the untraced phases of a traced run pay one atomic
// load per call.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// taken returns the spans recorded so far, sorted by start.
func (t *tracer) taken() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// headBytes is how much of each response body a server span keeps: enough
// for an access decision.
const headBytes = 256

type spanWriter struct {
	http.ResponseWriter
	n    int
	head []byte
}

func (w *spanWriter) Write(b []byte) (int, error) {
	if room := headBytes - len(w.head); room > 0 {
		if room > len(b) {
			room = len(b)
		}
		w.head = append(w.head, b[:room]...)
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (w *spanWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handler wraps the server's root handler with a server span per request.
// The replication stream is never traced: it lives as long as the run.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path == "/v1/replicate" {
			h.ServeHTTP(w, r)
			return
		}
		sw := &spanWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(sw, r)
		t.add(span{layer: layerServer, start: start, end: t.now(), path: r.URL.Path, bytes: sw.n, head: sw.head})
	})
}

// solve is the Config.SSESolve seam around the real online SSE solver.
func (t *tracer) solve(ctx context.Context, inst *game.Instance, b float64, futures []dist.Poisson) (*game.Result, error) {
	if !t.on.Load() {
		return game.SolveOnlineSSECtx(ctx, inst, b, futures)
	}
	start := t.now()
	res, err := game.SolveOnlineSSECtx(ctx, inst, b, futures)
	s := span{layer: layerGame, start: start, end: t.now()}
	if res != nil {
		s.lps = res.Stats.LPSolves
		s.iters = res.Stats.Simplex.Iterations()
		s.coverage = append([]float64(nil), res.Coverage...)
	}
	t.add(s)
	return res, err
}

// estimator wraps one tenant's estimator with history spans. It forwards
// the optional methods the engine and server look for, so cycle resets and
// durable snapshots behave as without the wrapper.
func (t *tracer) estimator(r *history.Rollback) core.Estimator {
	return &tracedEstimator{r: r, t: t}
}

type tracedEstimator struct {
	r *history.Rollback
	t *tracer
}

func (e *tracedEstimator) FutureRates(at time.Duration) ([]float64, error) {
	if !e.t.on.Load() {
		return e.r.FutureRates(at)
	}
	start := e.t.now()
	rates, err := e.r.FutureRates(at)
	e.t.add(span{layer: layerHistory, start: start, end: e.t.now()})
	return rates, err
}

func (e *tracedEstimator) Reset()                        { e.r.Reset() }
func (e *tracedEstimator) MarshalState() ([]byte, error) { return e.r.MarshalState() }
func (e *tracedEstimator) UnmarshalState(b []byte) error { return e.r.UnmarshalState(b) }

// nested is a server span with the spans recorded inside it.
type nested struct {
	parent   *span
	children []*span
	self     int64 // parent duration minus the time its children cover
}

// nest assigns every history and game span to the server span that
// contains it in time, and computes each server span's self time. Spans
// are recorded over one connection in a closed loop, so at most one server
// span is open at a time and containment identifies the parent. A child is
// clipped to its parent, so it never exceeds it.
func nest(spans []span) []nested {
	var out []nested
	for i := range spans {
		if spans[i].layer == layerServer {
			out = append(out, nested{parent: &spans[i]})
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.layer == layerServer {
			continue
		}
		// The parent is the last server span starting at or before c.
		k := sort.Search(len(out), func(j int) bool { return out[j].parent.start > c.start }) - 1
		if k >= 0 && c.start < out[k].parent.end {
			out[k].children = append(out[k].children, c)
		}
	}
	for i := range out {
		out[i].self = out[i].parent.dur() - covered(out[i].parent, out[i].children)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p *span, children []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, p.start), min(c.end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// accessDecision parses the decision a server span answered, if it was an
// access.
func accessDecision(s *span) (server.AccessResponse, bool) {
	var r server.AccessResponse
	if s.path != "/v1/access" || json.Unmarshal(s.head, &r) != nil {
		return r, false
	}
	return r, true
}
