package service

import (
	"net/http"
	"time"

	"dynspread/internal/obs"
)

// serverMetrics is the service layer's metric set. State the server already
// holds (queue depth, busy workers, cache size) is exported as func-backed
// metrics sampled at scrape time; events (cache outcomes, per-endpoint
// request counts and latencies, stream health) get their own instruments.
// Jobs-by-state is a gauge vector refreshed by an OnScrape hook — every
// state's series is pre-created so a scrape always shows all five, zeros
// included.
type serverMetrics struct {
	jobsSubmitted   *obs.Counter
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	streamsActive   *obs.Gauge
	streamOverflows *obs.Counter
	requests        *obs.CounterVec
	latency         *obs.HistogramVec
}

func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		jobsSubmitted: reg.Counter("dynspread_service_jobs_submitted_total",
			"Jobs accepted by POST /v1/runs (before queue admission)."),
		cacheHits: reg.Counter("dynspread_service_cache_hits_total",
			"Run-cache hits: trials answered without simulation."),
		cacheMisses: reg.Counter("dynspread_service_cache_misses_total",
			"Run-cache misses: trials that required simulation."),
		streamsActive: reg.Gauge("dynspread_service_streams_active",
			"JSONL result streams currently open."),
		streamOverflows: reg.Counter("dynspread_service_stream_overflows_total",
			"Streams that fell behind their send buffer and dropped to summary mode."),
		requests: reg.CounterVec("dynspread_service_http_requests_total",
			"HTTP requests served, by endpoint pattern.", "endpoint"),
		latency: reg.HistogramVec("dynspread_service_http_request_seconds",
			"HTTP request latency by endpoint pattern; streaming endpoints measure the stream's lifetime, and a held GET /v1/jobs/{id}?wait= its hold.",
			obs.DurationBuckets, "endpoint"),
	}
	reg.GaugeFunc("dynspread_service_queue_depth",
		"Jobs queued but not yet running.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("dynspread_service_queue_capacity",
		"Job queue capacity; depth at capacity refuses submissions (and fails readiness).",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("dynspread_service_busy_workers",
		"Jobs executing right now (queued and inline).",
		func() float64 { return float64(s.busy.Load()) })
	reg.GaugeFunc("dynspread_service_cache_size",
		"Run-cache entries resident.",
		func() float64 { return float64(s.cache.Len()) })
	capacity := float64(s.cfg.CacheSize)
	if s.cfg.Store != nil {
		capacity = 0 // the on-disk store is unbounded
	}
	reg.GaugeFunc("dynspread_service_cache_capacity",
		"Run-cache capacity in entries; 0 when the unbounded on-disk store is the run cache.",
		func() float64 { return capacity })

	jobsByState := reg.GaugeVec("dynspread_service_jobs",
		"Addressable jobs by lifecycle state.", "state")
	states := []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled}
	children := make(map[JobState]*obs.Gauge, len(states))
	for _, st := range states {
		children[st] = jobsByState.With(string(st))
	}
	reg.OnScrape(func() {
		byState := map[JobState]int{}
		s.mu.Lock()
		for _, j := range s.jobs {
			byState[j.Status().State]++
		}
		s.mu.Unlock()
		for st, g := range children {
			g.Set(int64(byState[st]))
		}
	})
	return m
}

// route registers handler on mux with per-endpoint request-count and
// latency instrumentation. The handler sees the ResponseWriter UNWRAPPED —
// wrapping would hide http.Flusher from the streaming endpoints — so
// instrumentation brackets the call instead of interposing on writes.
func (s *Server) route(mux *http.ServeMux, pattern, endpoint string, h http.HandlerFunc) {
	reqs := s.metrics.requests.With(endpoint)
	lat := s.metrics.latency.With(endpoint)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		reqs.Inc()
		lat.Observe(time.Since(start).Seconds())
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.reg.WriteTo(w) // a write error means the scraper went away
}
