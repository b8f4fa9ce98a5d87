package tracing

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynspread/internal/obs"
)

// SpanData is the exported (finished) form of a span: the JSON schema of
// the JSONL exporter, of GET /v1/traces/{id} (via wire.Trace), and of
// Tracer.Spans. IDs are hex strings so the schema is self-describing across
// processes.
type SpanData struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// ParentID is empty on root spans; for spans whose parent lives in
	// another process (a worker's job span under a coordinator's dispatch
	// span) it names a span that is not in the local ring.
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Service names the process that recorded the span (Config.Service) —
	// the per-worker lane of a rendered trace.
	Service string            `json:"service,omitempty"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []EventData       `json:"events,omitempty"`
}

// Duration is the span's wall-clock extent.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// EventData is one timestamped point annotation within a span (a retry, a
// worker death, an overflow) — cheaper than a child span when the moment,
// not an extent, is the information.
type EventData struct {
	Time  time.Time         `json:"time"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one in-flight timed operation. Create spans with Tracer.Start;
// a nil *Span is valid and every method on it is a no-op, so call sites
// never guard. Methods are safe for concurrent use — cluster dispatch
// goroutines add events to one shared run span.
//
// The spanend analyzer enforces the nil-safety promise: every exported
// pointer-receiver method must nil-guard before touching span state.
//
//dynspread:nilsafe
type Span struct {
	tracer *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Time

	mu     sync.Mutex
	attrs  map[string]string
	events []EventData
	ended  bool
}

// Context returns the span's propagated identity (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr records a key/value attribute, overwriting any previous value.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]string, 8)
		}
		s.attrs[key] = value
	}
	s.mu.Unlock()
}

// SetAttrInt records an integer attribute.
func (s *Span) SetAttrInt(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Event records a timestamped annotation. attrs are alternating key/value
// pairs; a trailing odd key is dropped.
func (s *Span) Event(name string, attrs ...string) {
	if s == nil {
		return
	}
	ev := EventData{Time: time.Now(), Name: name}
	if len(attrs) >= 2 {
		ev.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			ev.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	s.mu.Lock()
	if !s.ended {
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// End finishes the span and hands it to the tracer's exporters. Idempotent:
// only the first End exports.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	data := SpanData{
		TraceID: s.sc.Trace.String(),
		SpanID:  s.sc.Span.String(),
		Name:    s.name,
		Service: s.tracer.service,
		Start:   s.start,
		End:     end,
		Attrs:   s.attrs,
		Events:  s.events,
	}
	if !s.parent.IsZero() {
		data.ParentID = s.parent.String()
	}
	s.mu.Unlock()
	s.tracer.export(data)
}

// EndErr records err as the span's "error" attribute (when non-nil) and
// ends it — the one-line tail of the common span-around-a-call shape.
func (s *Span) EndErr(err error) {
	if err != nil {
		s.SetAttr("error", err.Error())
	}
	s.End()
}

// Config describes a Tracer.
type Config struct {
	// Service names this process on every span it records (e.g.
	// "spreadd:8081", "spreadctl") — the lane label of rendered traces.
	Service string
	// RingSize bounds the in-memory finished-span buffer (default 4096).
	// When full, the oldest span is dropped and the dropped counter ticks.
	RingSize int
	// Output, when non-nil, additionally receives every finished span as
	// one JSON line (the durable export path). Writes are serialized.
	Output io.Writer
	// Registry, when non-nil, receives the tracer's metrics:
	//
	//	dynspread_tracing_spans                 gauge   (ring occupancy)
	//	dynspread_tracing_spans_started_total   counter
	//	dynspread_tracing_spans_ended_total     counter
	//	dynspread_tracing_dropped_spans_total   counter (ring evictions +
	//	                                                 export write failures)
	Registry *obs.Registry
}

// Tracer creates spans and retains finished ones in a bounded ring. A nil
// *Tracer is valid: Start returns the context unchanged and a nil span.
// Create one per process with New and share it across layers — a shared
// tracer is what makes one daemon's spans queryable as one set.
//
// The spanend analyzer enforces the nil-safety promise: every exported
// pointer-receiver method must nil-guard before touching tracer state.
//
//dynspread:nilsafe
type Tracer struct {
	service string

	mu   sync.Mutex
	ring []SpanData // circular once len == cap
	next int        // ring insertion cursor
	out  io.Writer

	started atomic.Int64
	ended   atomic.Int64
	dropped atomic.Int64
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	size := cfg.RingSize
	if size <= 0 {
		size = 4096
	}
	t := &Tracer{
		service: cfg.Service,
		ring:    make([]SpanData, 0, size),
		out:     cfg.Output,
	}
	if reg := cfg.Registry; reg != nil {
		reg.GaugeFunc("dynspread_tracing_spans",
			"Finished spans retained in the in-memory ring buffer.",
			func() float64 { t.mu.Lock(); n := len(t.ring); t.mu.Unlock(); return float64(n) })
		reg.CounterFunc("dynspread_tracing_spans_started_total",
			"Spans started.",
			func() float64 { return float64(t.started.Load()) })
		reg.CounterFunc("dynspread_tracing_spans_ended_total",
			"Spans finished and exported.",
			func() float64 { return float64(t.ended.Load()) })
		reg.CounterFunc("dynspread_tracing_dropped_spans_total",
			"Finished spans evicted from the ring buffer or lost to export write failures.",
			func() float64 { return float64(t.dropped.Load()) })
	}
	return t
}

// Start begins a span named name as a child of the span context active
// under ctx (a local span, or a remote parent installed by
// ContextWithRemote); with neither, the span roots a fresh trace. The
// returned context carries the new span for children and for LogAttrs.
// On a nil tracer, Start returns (ctx, nil) — both no-ops downstream.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{
		tracer: t,
		name:   name,
		start:  time.Now(),
		sc:     SpanContext{Span: newSpanID()},
	}
	if parent, ok := FromContext(ctx); ok {
		s.sc.Trace = parent.Trace
		s.parent = parent.Span
	} else {
		s.sc.Trace = newTraceID()
	}
	t.started.Add(1)
	return context.WithValue(ctx, spanKey{}, s), s
}

// export appends one finished span to the JSONL sink (if any) and the ring.
func (t *Tracer) export(data SpanData) {
	t.ended.Add(1)
	t.mu.Lock()
	if t.out != nil {
		// Encode outside the error path but inside the lock: lines from
		// concurrent End calls must not interleave.
		b, err := json.Marshal(data)
		if err == nil {
			b = append(b, '\n')
			_, err = t.out.Write(b)
		}
		if err != nil {
			t.dropped.Add(1)
		}
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, data)
	} else {
		t.ring[t.next] = data
		t.dropped.Add(1)
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.mu.Unlock()
}

// Spans returns the finished spans of one trace still resident in the ring,
// oldest first. A nil tracer returns nil.
func (t *Tracer) Spans(traceID string) []SpanData {
	if t == nil {
		return nil
	}
	var out []SpanData
	t.mu.Lock()
	// Walk the ring oldest→newest: once it has wrapped, the oldest entry is
	// at the insertion cursor.
	start := 0
	if len(t.ring) == cap(t.ring) {
		start = t.next
	}
	for i := 0; i < len(t.ring); i++ {
		d := t.ring[(start+i)%len(t.ring)]
		if d.TraceID == traceID {
			out = append(out, d)
		}
	}
	t.mu.Unlock()
	return out
}
