package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Trace records the telemetry of one build: named spans (the staged
// pipeline's sample → prep → oracle → cluster → region breakdown),
// free-form integer counters (oracle distance calls, buffer-pool page
// reads) and string attributes (the reuse-ladder outcome). It is
// created at the jobs/session boundary, propagated via context through
// the pipeline, and served per job at
// GET /api/sessions/{id}/jobs/{jobID}/trace.
//
// All time reads go through the Trace's Clock, so the deterministic
// core can record spans without ever touching the wall clock itself
// (the blaeu-lint determinism contract). A nil *Trace is valid: every
// method is a no-op, which is how untraced builds (library use, the
// obs-off benchmark arm) pay nothing.
//
// A Trace is safe for concurrent use — parallel pipeline stages may
// open spans and bump counters concurrently.
type Trace struct {
	clock Clock
	start time.Time

	mu       sync.Mutex
	spans    []spanRec
	counters map[string]*atomic.Int64
	attrs    map[string]string
	total    time.Duration
	finished bool
}

type spanRec struct {
	name       string
	start, end time.Duration // offsets from trace start
}

// NewTrace starts a trace at clock.Now() (nil clock = Wall).
func NewTrace(clock Clock) *Trace {
	if clock == nil {
		clock = Wall
	}
	return &Trace{clock: clock, start: clock.Now()}
}

// Span is an open span handle; End closes it. The zero Span (from a
// nil Trace) is inert.
type Span struct {
	t     *Trace
	name  string
	begin time.Time
}

// Start opens a span. Nil-safe.
func (t *Trace) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, begin: t.clock.Now()}
}

// End closes the span, recording its start offset and duration.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := s.t.clock.Now()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans = append(s.t.spans, spanRec{
		name:  s.name,
		start: s.begin.Sub(s.t.start),
		end:   now.Sub(s.t.start),
	})
}

// Int returns the named counter, creating it on first use. The
// returned atomic is bumped directly by hot paths (one pointer, no map
// lookup per increment). Nil-safe: a nil trace returns a detached
// atomic.
func (t *Trace) Int(name string) *atomic.Int64 {
	if t == nil {
		return new(atomic.Int64)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counters == nil {
		t.counters = make(map[string]*atomic.Int64)
	}
	c, ok := t.counters[name]
	if !ok {
		c = new(atomic.Int64)
		t.counters[name] = c
	}
	return c
}

// SetAttr attaches a string attribute (e.g. reuse="cold").
// Nil-safe.
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attrs == nil {
		t.attrs = make(map[string]string)
	}
	t.attrs[key] = value
}

// Finish pins the trace's total duration. Idempotent; a snapshot of an
// unfinished trace reports the duration so far instead.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.finished {
		t.total = now.Sub(t.start)
		t.finished = true
	}
}

// SpanSnapshot is one closed span, offsets in milliseconds from the
// trace start.
type SpanSnapshot struct {
	Name       string  `json:"name"`
	StartMs    float64 `json:"startMs"`
	DurationMs float64 `json:"durationMs"`
}

// TraceSnapshot is the wire form of a trace.
type TraceSnapshot struct {
	// TotalMs is the traced duration: start to Finish (or to the
	// snapshot, while unfinished).
	TotalMs float64 `json:"totalMs"`
	// Spans are the closed spans in completion order.
	Spans []SpanSnapshot `json:"spans"`
	// Counters holds the integer counters (oracleDistEvals, pageReads,
	// ...). Keys render sorted (encoding/json sorts map keys).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Attrs holds the string attributes (reuse, action, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Snapshot captures the trace. Nil-safe: a nil trace snapshots to the
// zero value.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceSnapshot{TotalMs: ms(t.total)}
	if !t.finished {
		out.TotalMs = ms(now.Sub(t.start))
	}
	for _, s := range t.spans {
		out.Spans = append(out.Spans, SpanSnapshot{
			Name:       s.name,
			StartMs:    ms(s.start),
			DurationMs: ms(s.end - s.start),
		})
	}
	if len(t.counters) > 0 {
		out.Counters = make(map[string]int64, len(t.counters))
		for k, c := range t.counters {
			out.Counters[k] = c.Load()
		}
	}
	if len(t.attrs) > 0 {
		out.Attrs = make(map[string]string, len(t.attrs))
		for k, v := range t.attrs {
			out.Attrs[k] = v
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ctxKey keys the trace in a context.
type ctxKey struct{}

// WithTrace attaches the trace to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the context's trace, or nil (every Trace method is
// nil-safe, so callers need no check).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
