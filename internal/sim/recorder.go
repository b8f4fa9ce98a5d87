package sim

import (
	"time"

	"dynspread/internal/bitset/adaptive"
)

// This file holds the round engine's flight recorder: a preallocated ring of
// value-typed per-round samples the engine fills as it runs, so an operator
// can see HOW a trial spent its rounds (messages by payload kind, knowledge
// growth, adaptive-set representation churn, wall time) instead of only the
// final Metrics. The recorder is built for the hot path: when disabled it
// costs one nil compare per round; when enabled it writes one value-typed
// record into a fixed-capacity ring every sampled round and allocates
// nothing after construction. Stride and capacity bound the memory of
// arbitrarily long trials: a 10⁶-round execution recorded at stride 64 into
// a 1024-slot ring retains the most recent 1024 samples (~65k rounds of
// history) in a constant ~140 KiB.

// DefaultRecorderCapacity is the ring capacity selected by
// RecorderConfig.Capacity <= 0.
const DefaultRecorderCapacity = 1024

// RecorderConfig sizes a flight recorder.
type RecorderConfig struct {
	// Stride samples every Stride-th round (rounds r with r % Stride == 0,
	// plus always the final round of the execution). <= 0 selects 1 (every
	// round).
	Stride int `json:"stride,omitempty"`
	// Capacity is the ring size: the number of most-recent samples retained.
	// <= 0 selects DefaultRecorderCapacity.
	Capacity int `json:"capacity,omitempty"`
}

// RoundSample is one flight-recorder record. Counter-style fields (messages,
// payload tallies, learnings, arrivals, topology churn, promotions,
// demotions, nanos) are WINDOW DELTAS: the amount accumulated since the
// previous sample (so at stride 1 they are true per-round figures, and at
// stride s each sample aggregates s rounds). State-style fields (Round,
// Known) are absolute at sampling time. Known is Σ_v |K_v(t)| — exactly the
// potential Φ the paper's lower-bound arguments track — so knowledge density
// is Known/(n·k).
type RoundSample struct {
	Round int `json:"round"`

	Messages             int64 `json:"messages"`
	Broadcasts           int64 `json:"broadcasts,omitempty"`
	TokenPayloads        int64 `json:"token_payloads,omitempty"`
	RequestPayloads      int64 `json:"request_payloads,omitempty"`
	CompletenessPayloads int64 `json:"completeness_payloads,omitempty"`
	WalkPayloads         int64 `json:"walk_payloads,omitempty"`
	ControlPayloads      int64 `json:"control_payloads,omitempty"`
	Learned              int64 `json:"learned"`
	Arrived              int64 `json:"arrived,omitempty"`
	TC                   int64 `json:"tc,omitempty"`
	Removals             int64 `json:"removals,omitempty"`

	Known      int64 `json:"known"`
	Promotions int64 `json:"promotions,omitempty"`
	Demotions  int64 `json:"demotions,omitempty"`
	Nanos      int64 `json:"nanos,omitempty"`
}

// RecorderSnapshot is the post-run view of a recorder: the retained samples
// in chronological order plus the ring/stride contract they were collected
// under. Dropped counts the older samples the ring overwrote.
type RecorderSnapshot struct {
	Stride   int           `json:"stride"`
	Capacity int           `json:"capacity"`
	Dropped  int64         `json:"dropped,omitempty"`
	Samples  []RoundSample `json:"samples"`
}

// Recorder is the engine-facing flight recorder. Construct one with
// NewRecorder; the engine resets it at the start of every execution it is
// attached to, so — like a Workspace — one recorder serves a worker's whole
// sequence of trials, holding the series of the most recent execution. A
// Recorder is not safe for concurrent use and must not be shared between
// concurrently running executions.
type Recorder struct {
	stride int
	ring   []RoundSample
	pos    int   // next write slot
	n      int   // retained samples (≤ len(ring))
	taken  int64 // lifetime samples this run (Dropped = taken - n)

	st        *engineState
	prev      Metrics // metrics baseline at the previous sample
	prevProm  int64
	prevDem   int64
	arrived   int64 // token arrivals since the previous sample
	lastRound int   // round of the previous sample (0 = none yet)
	lastTime  time.Time
}

// NewRecorder returns a recorder with its ring fully preallocated; no method
// allocates afterwards (Snapshot returns fresh slices by design — it runs
// once per execution, off the round path).
func NewRecorder(cfg RecorderConfig) *Recorder {
	stride := cfg.Stride
	if stride <= 0 {
		stride = 1
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{stride: stride, ring: make([]RoundSample, capacity)}
}

// start rebinds the recorder to a fresh execution: it empties the ring and
// snapshots the metric/counter baselines so the first sample's window deltas
// start from the engine's post-setup state (setup-time insertions and
// representation switches never pollute round 1's window). Cold: runs once
// per execution.
func (rec *Recorder) start(st *engineState) {
	rec.st = st
	rec.pos, rec.n = 0, 0
	rec.taken = 0
	rec.arrived = 0
	rec.lastRound = 0
	rec.prev = st.metrics
	_, rec.prevProm, rec.prevDem = sumKnowledge(st.know)
	rec.lastTime = time.Now()
}

// sumKnowledge totals Σ|K_v| and the lifetime promotion/demotion counters
// across the knowledge sets in one pass. Count is O(1) per set and the
// counters are plain field reads, so this costs n loads per sampled round.
//
//dynspread:hotpath
func sumKnowledge(know []*adaptive.Set) (known, prom, dem int64) {
	for _, s := range know {
		known += int64(s.Count())
		prom += s.Promotions()
		dem += s.Demotions()
	}
	return known, prom, dem
}

// observeRound is the engine's per-round hook: it accumulates the round's
// token arrivals and, on stride boundaries, takes a sample. The fast path
// (non-sampled round) is one add and one modulo.
//
//dynspread:hotpath
func (rec *Recorder) observeRound(r, injected int) {
	rec.arrived += int64(injected)
	if r%rec.stride != 0 {
		return
	}
	rec.sample(r)
}

// finish closes the series at the execution's final round r, sampling it
// unless the stride already did. Every snapshot therefore ends with the
// final round's state regardless of stride alignment.
//
//dynspread:hotpath
func (rec *Recorder) finish(r int) {
	if rec.st == nil || r <= rec.lastRound {
		return
	}
	rec.sample(r)
}

// sample writes one record into the ring: window deltas against the previous
// sample's baselines plus the absolute knowledge state. Zero allocations —
// the record is a value written into the preallocated ring.
//
//dynspread:hotpath
func (rec *Recorder) sample(r int) {
	st := rec.st
	now := time.Now()
	known, prom, dem := sumKnowledge(st.know)
	cur := st.metrics
	rec.ring[rec.pos] = RoundSample{
		Round: r,

		Messages:             cur.Messages - rec.prev.Messages,
		Broadcasts:           cur.Broadcasts - rec.prev.Broadcasts,
		TokenPayloads:        cur.TokenPayloads - rec.prev.TokenPayloads,
		RequestPayloads:      cur.RequestPayloads - rec.prev.RequestPayloads,
		CompletenessPayloads: cur.CompletenessPayloads - rec.prev.CompletenessPayloads,
		WalkPayloads:         cur.WalkPayloads - rec.prev.WalkPayloads,
		ControlPayloads:      cur.ControlPayloads - rec.prev.ControlPayloads,
		Learned:              cur.Learnings - rec.prev.Learnings,
		Arrived:              rec.arrived,
		TC:                   cur.TC - rec.prev.TC,
		Removals:             cur.Removals - rec.prev.Removals,

		Known:      known,
		Promotions: prom - rec.prevProm,
		Demotions:  dem - rec.prevDem,
		Nanos:      now.Sub(rec.lastTime).Nanoseconds(),
	}
	rec.pos++
	if rec.pos == len(rec.ring) {
		rec.pos = 0
	}
	if rec.n < len(rec.ring) {
		rec.n++
	}
	rec.taken++
	rec.prev = cur
	rec.prevProm, rec.prevDem = prom, dem
	rec.arrived = 0
	rec.lastRound = r
	rec.lastTime = now
}

// Snapshot returns the recorded series in chronological order. It allocates
// the returned slice fresh (the ring is about to be reused by the next
// execution), so callers own it outright.
func (rec *Recorder) Snapshot() RecorderSnapshot {
	out := make([]RoundSample, rec.n)
	start := rec.pos - rec.n
	if start < 0 {
		start += len(rec.ring)
	}
	for i := 0; i < rec.n; i++ {
		out[i] = rec.ring[(start+i)%len(rec.ring)]
	}
	return RecorderSnapshot{
		Stride:   rec.stride,
		Capacity: len(rec.ring),
		Dropped:  rec.taken - int64(rec.n),
		Samples:  out,
	}
}
