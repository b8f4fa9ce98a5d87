package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dynspread/internal/wire"
)

// Streaming runs: POST /v1/runs?stream=1 answers with chunked JSONL
// (application/x-ndjson), one wire.StreamEvent per line — a "job" header,
// a "result" per completed trial, and a terminal "done". The backpressure
// contract is drop-to-summary, never block: each stream owns a bounded
// buffer (Config.StreamBuffer) fed by non-blocking sends from the delivery
// path, so a consumer that cannot keep up flips to "overflow" followed by
// periodic "summary" progress lines; the full result set stays available
// from GET /v1/jobs/{id}. A client that disconnects mid-stream just detaches
// its subscriber — the job, and the sweep pool under it, run on unaffected.
//
// GET /v1/jobs/{id}/stream attaches the same protocol to an already
// submitted job: results from the attach point forward (an already-terminal
// job answers with its header and "done" immediately).

// streamSummaryInterval is the cadence of "summary" keep-alive/progress
// lines on result streams.
const streamSummaryInterval = time.Second

// streamRun is the ?stream=1 arm of handleRuns: the job always takes the
// queue path (a synchronous response cannot stream), with the subscriber
// attached before enqueueing so no result can slip by unobserved.
func (s *Server) streamRun(w http.ResponseWriter, r *http.Request, j *job) {
	sub := j.subscribe(s.cfg.StreamBuffer)
	if err := s.enqueue(j); err != nil {
		j.unsubscribe(sub)
		s.drop(j, err)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.streamJob(w, r, j, sub)
}

func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", id))
		return
	}
	s.streamJob(w, r, j, j.subscribe(s.cfg.StreamBuffer))
}

// streamJob writes the JSONL event stream for one subscriber until the job
// terminates, the client disconnects, or the connection breaks.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job, sub *streamSub) {
	defer j.unsubscribe(sub)
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("service: response writer cannot stream"))
		return
	}
	s.metrics.streamsActive.Inc()
	defer s.metrics.streamsActive.Dec()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	write := func(ev wire.StreamEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false // connection gone; the deferred unsubscribe detaches us
		}
		flusher.Flush()
		return true
	}
	progress := func(typ string) wire.StreamEvent {
		st := j.Status()
		return wire.StreamEvent{Type: typ, Completed: st.Completed, Total: st.Total}
	}
	finish := func() {
		st := j.Status()
		write(wire.StreamEvent{Type: "done", ID: j.id, State: string(st.State),
			Completed: st.Completed, Total: st.Total, Error: st.Error})
	}
	{
		st := j.Status()
		if !write(wire.StreamEvent{Type: "job", ID: j.id, State: string(st.State),
			Completed: st.Completed, Total: st.Total}) {
			return
		}
	}
	ctx := r.Context()
	ticker := time.NewTicker(streamSummaryInterval)
	defer ticker.Stop()

	// Lossless mode: relay every buffered result as it arrives, with summary
	// lines between results as a keep-alive.
	for !sub.lost.Load() {
		select {
		case <-ctx.Done():
			return
		case ev := <-sub.ch:
			if !write(ev) {
				return
			}
		case <-j.done:
			// Every deliver happened before done closed; drain what's left.
			for {
				select {
				case ev := <-sub.ch:
					if !write(ev) {
						return
					}
				default:
					if sub.lost.Load() {
						s.metrics.streamOverflows.Inc()
						if !write(wire.StreamEvent{Type: "overflow", ID: j.id}) {
							return
						}
					}
					finish()
					return
				}
			}
		case <-ticker.C:
			if !write(progress("summary")) {
				return
			}
		}
	}

	// Overflow mode: the consumer fell behind, so per-trial events end at the
	// overflow point. Flush what was buffered before that point (deliver
	// stopped sending the moment lost flipped, so the buffer is finite and
	// quiescent), announce, then summarize until done.
	for len(sub.ch) > 0 {
		if !write(<-sub.ch) {
			return
		}
	}
	s.metrics.streamOverflows.Inc()
	if !write(wire.StreamEvent{Type: "overflow", ID: j.id}) {
		return
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-j.done:
			finish()
			return
		case <-ticker.C:
			if !write(progress("summary")) {
				return
			}
		}
	}
}
