package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"dynspread/internal/obs"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{Service: "test"})
	_, s := tr.Start(context.Background(), "op")
	sc := s.Context()
	if !sc.IsValid() {
		t.Fatal("started span has invalid context")
	}
	hdr := sc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q is not the 55-char 00-…-01 form", hdr)
	}
	got, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}
	s.End()
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	// A future version with trailing fields is accepted.
	if _, err := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Fatalf("future-version header rejected: %v", err)
	}
	for _, bad := range []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // no flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing garbage
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	id := newTraceID()
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), got, err)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("G", 32)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

// TestParenting: local nesting shares the trace and chains parent IDs;
// a remote parent (extracted traceparent) is joined the same way.
func TestParenting(t *testing.T) {
	tr := New(Config{Service: "svc"})
	ctx, root := tr.Start(context.Background(), "root")
	cctx, child := tr.Start(ctx, "child")
	_, grand := tr.Start(cctx, "grandchild")
	if child.Context().Trace != root.Context().Trace || grand.Context().Trace != root.Context().Trace {
		t.Fatal("children did not inherit the root's trace ID")
	}
	grand.End()
	child.End()
	root.End()
	spans := tr.Spans(root.Context().Trace.String())
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	if byName["root"].ParentID != "" {
		t.Fatalf("root has parent %q", byName["root"].ParentID)
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Fatal("child not parented on root")
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Fatal("grandchild not parented on child")
	}

	// Remote parent: the next Start under ContextWithRemote joins the trace.
	remote := SpanContext{Trace: newTraceID(), Span: newSpanID()}
	_, joined := tr.Start(ContextWithRemote(context.Background(), remote), "joined")
	if joined.Context().Trace != remote.Trace {
		t.Fatal("remote trace ID not inherited")
	}
	joined.End()
	rs := tr.Spans(remote.Trace.String())
	if len(rs) != 1 || rs[0].ParentID != remote.Span.String() {
		t.Fatalf("joined span not parented on the remote context: %+v", rs)
	}
}

func TestAttrsAndEvents(t *testing.T) {
	tr := New(Config{Service: "svc"})
	_, s := tr.Start(context.Background(), "op")
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 42)
	s.Event("retry", "worker", "w1", "attempt", "2")
	s.Event("bare")
	s.EndErr(errors.New("boom"))
	s.SetAttr("late", "ignored") // after End: dropped
	s.End()                      // idempotent

	spans := tr.Spans(s.Context().Trace.String())
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	d := spans[0]
	if d.Attrs["k"] != "v" || d.Attrs["n"] != "42" || d.Attrs["error"] != "boom" {
		t.Fatalf("attrs = %v", d.Attrs)
	}
	if _, late := d.Attrs["late"]; late {
		t.Fatal("attribute set after End was recorded")
	}
	if len(d.Events) != 2 || d.Events[0].Name != "retry" || d.Events[0].Attrs["attempt"] != "2" {
		t.Fatalf("events = %+v", d.Events)
	}
	if d.End.Before(d.Start) {
		t.Fatal("span ends before it starts")
	}
}

// TestRingBounded: the ring holds at most RingSize finished spans, evicts
// oldest-first, and counts every eviction as a drop.
func TestRingBounded(t *testing.T) {
	tr := New(Config{Service: "svc", RingSize: 4})
	ctx, root := tr.Start(context.Background(), "root")
	trace := root.Context().Trace.String()
	root.End()
	for i := 0; i < 6; i++ {
		_, s := tr.Start(ctx, "child")
		s.SetAttrInt("i", int64(i))
		s.End()
	}
	spans := tr.Spans(trace)
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// root + children 0,1 evicted; 2..5 retained oldest-first.
	if spans[0].Attrs["i"] != "2" || spans[3].Attrs["i"] != "5" {
		t.Fatalf("unexpected retained window: %v … %v", spans[0].Attrs, spans[3].Attrs)
	}
	if got := tr.dropped.Load(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
}

// TestJSONLExport: every finished span is one decodable JSON line.
func TestJSONLExport(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Service: "svc", Output: &buf})
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child")
	child.End()
	root.End()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var first SpanData
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if first.Name != "child" { // children end first
		t.Fatalf("first exported span is %q, want child", first.Name)
	}
	if first.Service != "svc" || first.TraceID != root.Context().Trace.String() {
		t.Fatalf("exported span misses identity: %+v", first)
	}
}

// TestNilSafety: a nil tracer and its nil spans are no-ops everywhere.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "op")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.Event("e")
	s.EndErr(errors.New("x"))
	s.End()
	if s.Context().IsValid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.Spans("anything") != nil {
		t.Fatal("nil tracer returned data")
	}
	if got := LogAttrs(ctx); got != nil {
		t.Fatalf("LogAttrs on a span-free context = %v", got)
	}
	if sc, ok := FromContext(ctx); ok || sc.IsValid() {
		t.Fatal("nil tracer installed a span context")
	}
}

func TestLogAttrs(t *testing.T) {
	tr := New(Config{Service: "svc"})
	ctx, s := tr.Start(context.Background(), "op")
	defer s.End()
	got := LogAttrs(ctx)
	if len(got) != 4 || got[0] != "trace_id" || got[2] != "span_id" {
		t.Fatalf("LogAttrs = %v", got)
	}
	if got[1] != s.Context().Trace.String() || got[3] != s.Context().Span.String() {
		t.Fatalf("LogAttrs IDs do not match the span: %v", got)
	}
}

// TestTracerMetrics: the obs instruments track started/ended/ring/dropped.
func TestTracerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Service: "svc", RingSize: 2, Registry: reg})
	ctx, a := tr.Start(context.Background(), "a")
	_, b := tr.Start(ctx, "b")
	_, c := tr.Start(ctx, "c")
	a.End()
	b.End()
	c.End() // evicts a
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dynspread_tracing_spans":               2,
		"dynspread_tracing_spans_started_total": 3,
		"dynspread_tracing_spans_ended_total":   3,
		"dynspread_tracing_dropped_spans_total": 1,
	}
	for name, v := range want {
		f := obs.Find(fams, name)
		if f == nil {
			t.Fatalf("metric %s not exposed", name)
		}
		if got, ok := f.Value(nil); !ok || got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// TestConcurrentSpans: concurrent starts, events on a shared span, and ends
// race-cleanly (run under -race in CI).
func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{Service: "svc", RingSize: 64})
	ctx, root := tr.Start(context.Background(), "root")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				root.Event("tick", "g", "x")
				_, s := tr.Start(ctx, "child")
				s.SetAttrInt("g", int64(g))
				s.End()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	root.End()
	spans := tr.Spans(root.Context().Trace.String())
	if len(spans) != 64 {
		t.Fatalf("ring holds %d, want 64", len(spans))
	}
	if time.Since(spans[0].Start) > time.Minute {
		t.Fatal("implausible span timestamps")
	}
}

// FuzzParseTraceparent: ParseTraceparent never panics, and accepted input
// keeps its identity. Parse then format is not the identity: Traceparent
// always writes version 00 and flags 01, and parsing ignores the fields a
// future version may append. What survives is the trace-id and parent-id,
// s[3:52] (both IDs and the dash between them), and a formatted context
// parses back to itself.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00-extra",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		hdr := sc.Traceparent()
		if s[3:52] != hdr[3:52] {
			t.Fatalf("ParseTraceparent(%q) kept ids %q, want %q", s, hdr[3:52], s[3:52])
		}
		back, err := ParseTraceparent(hdr)
		if err != nil || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", hdr, back, err, sc)
		}
	})
}
