package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynspread/internal/tracing"
	"dynspread/internal/wire"
)

// Traced runs record spans from this harness around its calls into each
// layer — a pass over the sweep pool, a request through service.Client, an
// HTTP handler, a coordinator run, a store open — and pass the same tracer
// to the layers that accept one (sweep.Options.Tracer, service.Config.Tracer,
// cluster.Config.Tracer), so the job, shard and trial spans those record
// join the harness's spans in one tree per operation.

// spanLayer attributes each span name to the layer whose self time it
// measures.
var spanLayer = map[string]string{
	"bench.pass":    "sweep",   // the sweep pool, around its trials
	"bench.request": "client",  // load generator, service.Client, HTTP transport
	"bench.cluster": "client",  // the caller of a coordinator run
	"bench.warm":    "store",   // store.Open plus a run served from the store
	"store.open":    "store",   //
	"http.handler":  "http",    // server HTTP plus request and response JSON
	"job":           "service", // job bookkeeping and the result cache
	"queue-wait":    "service", //
	"run":           "service", //
	"cluster.run":   "cluster", // planning, dispatch and store writes
	"shard":         "cluster", //
	"trial":         "sim",     // one engine execution
}

// startTracing installs a tracer whose spans append to b.spans, and returns
// the offset this phase's spans start at.
func (b *bench) startTracing() int {
	b.tracer = tracing.New(tracing.Config{Service: "spreadbench", Output: &b.spans})
	return b.spans.Len()
}

// stopTracing removes the tracer and decodes the spans written since from
// that started at or after since. Every goroutine that could end a span
// must have stopped by then.
func (b *bench) stopTracing(from int, since time.Time) ([]tracing.SpanData, error) {
	b.tracer = nil
	dec := json.NewDecoder(bytes.NewReader(b.spans.Bytes()[from:]))
	var out []tracing.SpanData
	for {
		var s tracing.SpanData
		if err := dec.Decode(&s); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		if !s.Start.Before(since) {
			out = append(out, s)
		}
	}
}

// reportSpans prints each layer's self time and returns the spans named
// "trial". A span's self time is its duration minus the part of it its
// descendants cover: descendants, not just children, because a job the
// service runs after its submitting request returned is a child of that
// request but runs while the coordinator's shard span waits.
func (b *bench) reportSpans(spans []tracing.SpanData) []tracing.SpanData {
	children := map[string][]int{}
	var trials []tracing.SpanData
	for i, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] = append(children[s.ParentID], i)
		}
		if s.Name == "trial" {
			trials = append(trials, s)
		}
	}
	self := map[string]time.Duration{}
	var total time.Duration
	var stack []int
	var below []tracing.SpanData
	for _, s := range spans {
		below = below[:0]
		stack = append(stack[:0], children[s.SpanID]...)
		for len(stack) > 0 {
			d := spans[stack[len(stack)-1]]
			stack = append(stack[:len(stack)-1], children[d.SpanID]...)
			below = append(below, d)
		}
		layer, ok := spanLayer[s.Name]
		if !ok {
			layer = "other"
		}
		d := s.Duration() - covered(s, below)
		self[layer] += d
		total += d
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		b.metric("self_ms."+l, ms(self[l]), "ms")
		b.metric("self_share."+l, float64(self[l])/float64(total), "ratio")
	}
	return trials
}

// covered returns how much of s's interval the union of the given spans'
// intervals covers.
func covered(s tracing.SpanData, kids []tracing.SpanData) time.Duration {
	type iv struct{ a, e time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, e := k.Start, k.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if e.After(s.End) {
			e = s.End
		}
		if e.After(a) {
			ivs = append(ivs, iv{a, e})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.e):
			if v.e.After(cur.e) {
				cur.e = v.e
			}
		default:
			sum += cur.e.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.e.Sub(cur.a)
	}
	return sum
}

// reportTrials reports the trial spans' latency and the share of the
// pool's capacity (wall × workers) they fill.
func (b *bench) reportTrials(trials []tracing.SpanData, wall time.Duration, workers int) {
	lat := make([]float64, len(trials))
	var busy time.Duration
	for i, s := range trials {
		lat[i] = ms(s.Duration())
		busy += s.Duration()
	}
	b.latency("trial.", lat)
	b.metric("pool.utilization", float64(busy)/(float64(wall)*float64(workers)), "ratio")
}

// Requests the harness sends in traced runs carry their index in this
// header, so the server-side middleware can attribute its time.
const idHeader = "X-Bench-Request"

type tagKey struct{}

func withTag(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, tagKey{}, id)
}

// taggedTransport copies a request's index from its context into a header.
type taggedTransport struct{ base http.RoundTripper }

func (t taggedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(tagKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(idHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}

// handlerLog collects server-side handler times.
type handlerLog struct {
	mu    sync.Mutex
	byID  map[int]float64 // ms, by request index
	polls int             // GET /v1/jobs/{id} requests
}

func newHandlerLog() *handlerLog { return &handlerLog{byID: map[int]float64{}} }

// timedHandler wraps a service handler in an "http.handler" span per
// request and logs its duration. The span joins the caller's trace and
// becomes the parent the service's own job span attaches to.
func timedHandler(next http.Handler, tr *tracing.Tracer, log *handlerLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if sc, err := tracing.ParseTraceparent(r.Header.Get(wire.HeaderTraceparent)); err == nil {
			ctx = tracing.ContextWithRemote(ctx, sc)
		}
		ctx, span := tr.Start(ctx, "http.handler")
		defer span.End()
		span.SetAttr("route", r.Method+" "+r.URL.Path)
		if sc := span.Context(); sc.IsValid() {
			r.Header.Set(wire.HeaderTraceparent, sc.Traceparent())
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(ctx))
		d := ms(time.Since(start))
		log.mu.Lock()
		defer log.mu.Unlock()
		if id, err := strconv.Atoi(r.Header.Get(idHeader)); err == nil {
			log.byID[id] = d
		}
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			log.polls++
		}
	})
}
