package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dynspread/internal/tracing"
	"dynspread/internal/wire"
)

// JobState is the lifecycle of one submitted job.
type JobState string

// Job lifecycle: Queued → Running → Done | Failed; jobs still queued when
// the server shuts down become Canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// JobStatus is the wire form of a job: the body of GET /v1/jobs/{id} and of
// both POST /v1/runs responses (synchronous 200 with results, queued 202
// without). Completed counts trials with a result so far — cache hits
// complete instantly, simulated trials as the sweep pool reports them — so
// Completed/Total is live progress.
type JobStatus struct {
	ID          string             `json:"id"`
	State       JobState           `json:"state"`
	Total       int                `json:"total"`
	Completed   int                `json:"completed"`
	CacheHits   int                `json:"cache_hits"`
	CacheMisses int                `json:"cache_misses"`
	Error       string             `json:"error,omitempty"`
	Results     []wire.TrialResult `json:"results,omitempty"`
}

// job is one unit on the queue: a batch of specs with live progress.
type job struct {
	id    string
	seq   int64 // submission order; the sort key of GET /v1/jobs
	specs []wire.TrialSpec
	// record, when non-nil, asks every trial for a flight-recorder round
	// series (and routes the job around the result cache — see store.Lookup).
	// Written once in submit before the job is published, so no lock.
	record *wire.RecordSpec

	// Trace identity, written once in submit before the job is published
	// (so no lock): the root "job" span, its "queue-wait" child, the context
	// carrying the root span (for child spans and LogAttrs), and the trace
	// ID string /v1/traces resolves job IDs through. All nil/empty on an
	// untraced server; every use is nil-safe.
	span      *tracing.Span
	queueSpan *tracing.Span
	tctx      context.Context
	traceID   string

	completed              atomic.Int64
	cacheHits, cacheMisses atomic.Int64

	// release fires exactly once when the job terminates (run, canceled, or
	// dropped), balancing the server's jobWG.Add made at submission.
	release sync.Once

	mu      sync.Mutex
	state   JobState
	err     error
	results []wire.TrialResult
	subs    []*streamSub
	done    chan struct{}
}

// streamSub is one JSONL stream attached to a job: a bounded event buffer
// plus a latch that flips when the consumer falls behind. Sends are
// non-blocking — a slow consumer can NEVER stall the sweep pool — so a full
// buffer sets lost and the stream handler downgrades to periodic progress
// summaries instead of per-trial results.
type streamSub struct {
	ch   chan wire.StreamEvent
	lost atomic.Bool
}

// subscribe attaches a stream with the given buffer size. Subscribe BEFORE
// enqueueing the job and no result can be missed: every deliver after this
// point fans out to the subscriber.
func (j *job) subscribe(buf int) *streamSub {
	sub := &streamSub{ch: make(chan wire.StreamEvent, buf)}
	j.mu.Lock()
	j.subs = append(j.subs, sub)
	j.mu.Unlock()
	return sub
}

// unsubscribe detaches a stream; late deliveries to an already-detached sub
// simply stop.
func (j *job) unsubscribe(sub *streamSub) {
	j.mu.Lock()
	for i, s := range j.subs {
		if s == sub {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	j.mu.Unlock()
}

// deliver records trial i's result (the job's progress counter and result
// slot) and fans a "result" event out to every attached stream — followed,
// when the trial carries a flight-recorder series, by a "round_series" event
// for the same index, so stream consumers that only want the dynamics can
// skip result payloads. Distinct indices are written by distinct callers, so
// the slot write needs no lock — the existing finish/done ordering publishes
// it to status readers — and the fan-out sends are non-blocking: a full
// subscriber buffer marks that subscriber lost rather than waiting on it.
func (j *job) deliver(i int, r wire.TrialResult) {
	j.results[i] = r
	j.completed.Add(1)
	events := [2]wire.StreamEvent{{Type: "result", Index: i, Result: &r}}
	n := 1
	if r.RoundSeries != nil {
		events[1] = wire.StreamEvent{Type: "round_series", Index: i, Series: r.RoundSeries}
		n = 2
	}
	j.mu.Lock()
	for _, sub := range j.subs {
		for _, ev := range events[:n] {
			if sub.lost.Load() {
				break
			}
			select {
			case sub.ch <- ev:
			default:
				sub.lost.Store(true)
			}
		}
	}
	j.mu.Unlock()
}

func newJob(id string, seq int64, specs []wire.TrialSpec) *job {
	return &job{
		id:      id,
		seq:     seq,
		specs:   specs,
		state:   JobQueued,
		results: make([]wire.TrialResult, len(specs)),
		done:    make(chan struct{}),
	}
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

// finish moves the job to its terminal state. The sweep pool has fully
// drained by the time finish is called, so publishing results under the
// mutex gives status readers a consistent view.
func (j *job) finish(err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = JobDone
	default:
		j.state = JobFailed
		j.err = err
	}
	j.mu.Unlock()
	close(j.done)
}

// cancel marks a job that was dequeued-for-drop or never dequeued.
func (j *job) cancel(err error) {
	j.mu.Lock()
	j.state = JobCanceled
	j.err = err
	j.mu.Unlock()
	close(j.done)
}

// Status snapshots the job. Results are exposed only in terminal states:
// while the job runs they are being written by pool workers.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Total:       len(j.specs),
		Completed:   int(j.completed.Load()),
		CacheHits:   int(j.cacheHits.Load()),
		CacheMisses: int(j.cacheMisses.Load()),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == JobDone {
		st.Results = j.results
	}
	return st
}

// closeTrace ends the job's spans with its terminal state. Called from
// retire (the single terminal point for run, canceled, and dropped jobs);
// Span.End is idempotent, so a queue-wait span already ended by runJob and
// a double retire are both harmless.
func (j *job) closeTrace() {
	j.queueSpan.End()
	if j.span == nil {
		return
	}
	st := j.Status()
	j.span.SetAttr("state", string(st.State))
	j.span.SetAttrInt("completed", int64(st.Completed))
	j.span.SetAttrInt("cache_hits", int64(st.CacheHits))
	j.span.SetAttrInt("cache_misses", int64(st.CacheMisses))
	if st.Error != "" {
		j.span.SetAttr("error", st.Error)
	}
	j.span.End()
}

// errValue returns the job's terminal error, if any.
func (j *job) errValue() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *job) String() string {
	return fmt.Sprintf("job %s (%d trials)", j.id, len(j.specs))
}
