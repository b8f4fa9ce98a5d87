// Package wire is the simulation service's wire schema: the request/result
// types shared by the spreadd server (internal/service, cmd/spreadd), its Go
// client, the cluster coordinator (internal/cluster), the persistent result
// store (internal/store), and spreadsim -json. Everything is registry-name
// based — a TrialSpec names its algorithm, adversary, and scenario instead
// of holding them — so the same JSON object describes a run to a remote
// daemon exactly as it does to an in-process call, and its canonical
// encoding can serve as a content address for run caching and the on-disk
// result log.
//
// The root dynspread package re-exports every type here as an alias, so
// public callers never import this package directly; it exists below the
// facade so the service, cluster, and store layers can share the schema
// without importing it. It is not a leaf: it converts to and from sweep
// types and hosts the in-process runner (RunSpecs), so it imports sim,
// sweep, and tracing, and it shares trace's node bound.
package wire

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	// A wire spec names algorithms, adversaries, and scenarios by registry
	// name, so executing one requires the bundled components to be
	// registered: core and adversary self-register here (scenario rides in
	// through sweep), making every wire-consuming binary — spreadd workers,
	// the cluster coordinator, spreadctl — complete without importing the
	// facade.
	_ "dynspread/internal/adversary"
	_ "dynspread/internal/core"
	"dynspread/internal/sim"
	"dynspread/internal/sweep"
	"dynspread/internal/trace"
	"dynspread/internal/tracing"
)

// Trace-context propagation header (W3C Trace Context). Every hop of the
// serving tier speaks it: service handlers extract HeaderTraceparent from
// incoming requests so a job joins its submitter's trace, and service.Client
// injects it on outgoing requests so coordinator→worker dispatch and the
// worker's job land in ONE trace. The companion tracestate header is
// neither read nor forwarded: this codebase keeps no vendor state.
const HeaderTraceparent = "traceparent"

// Trace is the body of GET /v1/traces/{id}: every finished span of one
// trace that the daemon (and, on a coordinator, its workers) still retains,
// sorted by start time. Spans form a tree through ParentID; a span whose
// parent is absent renders as a root (the parent may have been recorded by
// an unqueried process, or evicted from a ring buffer).
type Trace struct {
	TraceID string `json:"trace_id"`
	// Spans reuses the tracing exporter's JSONL schema verbatim, so a
	// fetched trace and a -trace-log line are the same object.
	Spans []tracing.SpanData `json:"spans"`
}

// TrialSpec is the wire form of one fully specified trial: the JSON schema
// accepted per-trial by POST /v1/runs and emitted by spreadsim -json.
// Field semantics match sweep.Trial; zero values mean the documented
// defaults. Executions are deterministic functions of a TrialSpec, which is
// what makes specs content-addressable.
type TrialSpec struct {
	// Scenario, when non-empty, selects a registered workload supplying the
	// shape, dynamics, arrival schedule, and defaults; N/K/Sources must stay
	// zero, and Algorithm/Adversary act as overrides.
	Scenario string `json:"scenario,omitempty"`
	// N, K, Sources describe a classic instance (sources defaults to 1).
	N       int `json:"n,omitempty"`
	K       int `json:"k,omitempty"`
	Sources int `json:"sources,omitempty"`
	// Algorithm and Adversary are registry names.
	Algorithm string `json:"algorithm,omitempty"`
	Adversary string `json:"adversary,omitempty"`
	// Seed derives every random choice of the trial.
	//dynspread:allow wiretag -- every int64 is a valid seed; Validate has no bound to enforce
	Seed int64 `json:"seed"`
	// MaxRounds caps the execution (0 = engine default); Sigma is the churn
	// stability parameter (0 = default 3); CheckStability > 0 verifies
	// σ-edge-stability during the execution, in either communication mode.
	MaxRounds      int `json:"max_rounds,omitempty"`
	Sigma          int `json:"sigma,omitempty"`
	CheckStability int `json:"check_stability,omitempty"`
	// Arrivals is the explicit per-token injection schedule (entry t = round
	// token t arrives at its source); nil means all tokens at round 0, or
	// the scenario's own schedule for scenario trials.
	Arrivals []int `json:"arrivals,omitempty"`
	// Replay, in a RESOLVED spec, records that the execution's dynamics were
	// a recorded graph trace replayed verbatim rather than a live adversary,
	// scenario runs included. The trace itself is not part of the wire
	// schema, so a spec with Replay set cannot be (re)submitted — replays run
	// in-process via Config.Replay.
	Replay bool `json:"replay,omitempty"`
}

// Normalized returns the spec with wire-level defaults applied (Sources
// defaulted to 1 for classic trials). Content-addressed caches hash the
// normalized spec so equivalent requests share a cache entry.
func (s TrialSpec) Normalized() TrialSpec {
	if s.Scenario == "" && s.Sources <= 0 {
		s.Sources = 1
	}
	return s
}

// Key returns the content address of one trial: the SHA-256 of the
// normalized spec's canonical JSON encoding. encoding/json marshals struct
// fields in declared order, so the encoding — and therefore the key — is a
// deterministic function of the spec, and every execution is a
// deterministic function of its spec (ROADMAP's "same inputs, same
// metrics"), which is what makes cached and stored results safe to serve
// verbatim, across processes and across runs.
func Key(spec TrialSpec) string {
	b, err := json.Marshal(spec.Normalized())
	if err != nil {
		// A TrialSpec is plain data; marshaling cannot fail.
		panic("wire: marshal trial spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Wire-level shape limits. The service accepts arbitrary JSON, so the wire
// layer — not the engine — is where absurd instances must be rejected: an
// (n, k) far beyond anything the simulator can execute would previously
// reach sim.DefaultMaxRounds and could wrap the round cap around. These
// bounds are orders of magnitude above every realistic sweep while keeping
// 40·n·k comfortably inside an int64.
const (
	// MaxWireN is the largest node count accepted over the wire: the graph
	// trace decoder's bound, so every decoder of outside input agrees.
	MaxWireN = trace.MaxN
	// MaxWireK is the largest token count accepted over the wire.
	MaxWireK = 1 << 24
	// MaxWireRounds is the largest explicit round cap (or arrival round)
	// accepted over the wire. It must fit a 32-bit int so the module keeps
	// compiling on 32-bit platforms.
	MaxWireRounds = 1 << 30
	// MaxWireTrials bounds the number of trials one grid may expand to.
	// Checked BEFORE expansion — a small request body can describe a
	// cross-product of billions of trials, which must be rejected without
	// materializing it.
	MaxWireTrials = 1 << 20
	// MaxWireRecorderCapacity bounds the flight-recorder ring a request may
	// ask for: each sweep worker preallocates one ring of this many samples,
	// so the bound caps recorder memory at workers × capacity × ~140 B.
	MaxWireRecorderCapacity = 1 << 16
)

// RecordSpec is the wire form of a flight-recorder request: it opts a run
// into per-round series recording (RunRequest.Record) and sizes the
// recorder. It lives on the REQUEST, not on TrialSpec: recording changes
// what is observed, never what executes, so it must not perturb the
// content-addressed trial keys the result cache and store are indexed by.
type RecordSpec struct {
	// Stride samples every Stride-th round plus the final round (<= 0 = 1).
	Stride int `json:"stride,omitempty"`
	// Capacity is the per-trial ring size: the number of most-recent samples
	// retained (<= 0 = sim.DefaultRecorderCapacity).
	Capacity int `json:"capacity,omitempty"`
}

// Validate rejects recorder shapes outside the wire envelope.
func (r RecordSpec) Validate() error {
	if r.Stride < 0 || r.Stride > MaxWireRounds {
		return fmt.Errorf("dynspread: record spec: stride %d outside [0, %d]", r.Stride, MaxWireRounds)
	}
	if r.Capacity < 0 || r.Capacity > MaxWireRecorderCapacity {
		return fmt.Errorf("dynspread: record spec: capacity %d outside [0, %d]", r.Capacity, MaxWireRecorderCapacity)
	}
	return nil
}

// RecorderConfig converts the wire spec into the sim layer's recorder
// configuration.
func (r RecordSpec) RecorderConfig() sim.RecorderConfig {
	return sim.RecorderConfig{Stride: r.Stride, Capacity: r.Capacity}
}

// Validate rejects wire specs whose shape is negative or absurdly large,
// with an error naming the offending field. Registry-name resolution and
// instance-consistency checks (unknown algorithm, sources > n, …) stay with
// the sweep layer; Validate only guards the numeric envelope.
func (s TrialSpec) Validate() error {
	check := func(field string, v, max int) error {
		if v < 0 {
			return fmt.Errorf("dynspread: trial spec: %s must not be negative, got %d", field, v)
		}
		if v > max {
			return fmt.Errorf("dynspread: trial spec: %s = %d exceeds the wire limit %d", field, v, max)
		}
		return nil
	}
	if err := check("n", s.N, MaxWireN); err != nil {
		return err
	}
	if err := check("k", s.K, MaxWireK); err != nil {
		return err
	}
	if err := check("sources", s.Sources, MaxWireN); err != nil {
		return err
	}
	if err := check("max_rounds", s.MaxRounds, MaxWireRounds); err != nil {
		return err
	}
	if err := check("sigma", s.Sigma, MaxWireRounds); err != nil {
		return err
	}
	if err := check("check_stability", s.CheckStability, MaxWireRounds); err != nil {
		return err
	}
	if len(s.Arrivals) > MaxWireK {
		return fmt.Errorf("dynspread: trial spec: %d arrival entries exceed the wire limit %d", len(s.Arrivals), MaxWireK)
	}
	for t, r := range s.Arrivals {
		if err := check(fmt.Sprintf("arrivals[%d]", t), r, MaxWireRounds); err != nil {
			return err
		}
	}
	return nil
}

// sweepTrial converts the wire spec into the sweep layer's trial.
func (s TrialSpec) sweepTrial() sweep.Trial {
	return sweep.Trial{
		Scenario: s.Scenario,
		N:        s.N, K: s.K, Sources: s.Sources,
		Algorithm:      s.Algorithm,
		Adversary:      s.Adversary,
		Seed:           s.Seed,
		MaxRounds:      s.MaxRounds,
		Sigma:          s.Sigma,
		CheckStability: s.CheckStability,
		Arrivals:       s.Arrivals,
	}
}

// SpecFromTrial converts a RESOLVED sweep trial back into wire form: for
// scenario trials the shape, algorithm, dynamics, and materialized arrival
// schedule are concrete, so the result fully describes the execution.
func SpecFromTrial(t sweep.Trial) TrialSpec {
	s := TrialSpec{
		Scenario: t.Scenario,
		N:        t.N, K: t.K, Sources: t.Sources,
		Algorithm:      t.Algorithm,
		Adversary:      t.Adversary,
		Seed:           t.Seed,
		MaxRounds:      t.MaxRounds,
		Sigma:          t.Sigma,
		CheckStability: t.CheckStability,
		Arrivals:       t.Arrivals,
	}
	if t.Replay != nil {
		// The dynamics were a verbatim trace, not the named adversary, and
		// the spec cannot reproduce them.
		s.Adversary = ""
		s.Replay = true
	}
	return s.Normalized()
}

// GridSpec is the wire form of a sweep grid (see sweep.Grid for the axis
// semantics): the JSON schema accepted by POST /v1/runs for sweep jobs.
type GridSpec struct {
	Ns          []int    `json:"ns,omitempty"`
	Ks          []int    `json:"ks,omitempty"`
	Sources     []int    `json:"sources,omitempty"`
	Algorithms  []string `json:"algorithms,omitempty"`
	Adversaries []string `json:"adversaries,omitempty"`
	Scenarios   []string `json:"scenarios,omitempty"`
	Seeds       []int64  `json:"seeds,omitempty"`
	MaxRounds   int      `json:"max_rounds,omitempty"`
	Sigma       int      `json:"sigma,omitempty"`
}

// Trials validates and expands the grid into wire-form trial specs in the
// sweep layer's deterministic order. The expansion cardinality is bounded
// BEFORE materializing anything (via sweep's Grid.Cardinality, which lives
// next to the expansion loop it mirrors), so a tiny request body cannot
// describe a memory-exhausting cross-product.
func (g GridSpec) Trials() ([]TrialSpec, error) {
	sg := sweep.Grid{
		Ns: g.Ns, Ks: g.Ks, Sources: g.Sources,
		Algorithms:  g.Algorithms,
		Adversaries: g.Adversaries,
		Scenarios:   g.Scenarios,
		Seeds:       g.Seeds,
		MaxRounds:   g.MaxRounds,
		Sigma:       g.Sigma,
	}
	if c := sg.Cardinality(); c > MaxWireTrials {
		return nil, fmt.Errorf("dynspread: grid expands to %d trials, more than the wire limit %d", c, MaxWireTrials)
	}
	if err := sg.Validate(); err != nil {
		return nil, err
	}
	trials := sg.Trials()
	specs := make([]TrialSpec, len(trials))
	for i, t := range trials {
		specs[i] = SpecFromTrial(t)
	}
	return specs, nil
}

// RunRequest is the body of POST /v1/runs: explicit trials, a grid to
// expand, or both (explicit trials run first).
type RunRequest struct {
	Trials []TrialSpec `json:"trials,omitempty"`
	Grid   *GridSpec   `json:"grid,omitempty"`
	// Async forces queued 202-style execution even for small jobs.
	Async bool `json:"async,omitempty"`
	// Record, when non-nil, attaches a flight recorder to every trial of the
	// run: each TrialResult carries its per-round series (RoundSeries), and
	// recorded jobs bypass the result cache and store (a cached result has
	// no series, and results with observation payloads must not displace the
	// canonical cached metrics).
	Record *RecordSpec `json:"record,omitempty"`
}

// Specs validates the request (its recorder shape included) and flattens
// it into the trial list to run.
func (r RunRequest) Specs() ([]TrialSpec, error) {
	if len(r.Trials) == 0 && r.Grid == nil {
		return nil, fmt.Errorf("dynspread: run request names no trials and no grid")
	}
	if r.Record != nil {
		if err := r.Record.Validate(); err != nil {
			return nil, err
		}
	}
	specs := make([]TrialSpec, 0, len(r.Trials))
	for i, s := range r.Trials {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("%w (trial %d)", err, i)
		}
		specs = append(specs, s.Normalized())
	}
	if r.Grid != nil {
		expanded, err := r.Grid.Trials()
		if err != nil {
			return nil, err
		}
		// Grid axes are arbitrary JSON too: validate the expanded specs so
		// an absurd grid is rejected at request time (400) instead of
		// failing the whole job mid-run.
		for i, s := range expanded {
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("%w (grid trial %d)", err, i)
			}
		}
		specs = append(specs, expanded...)
	}
	return specs, nil
}

// TrialResult is the wire form of one executed trial: the RESOLVED spec
// (scenario names expanded into their concrete shape, algorithm, dynamics,
// and arrival schedule) plus the engine outcome and the paper's derived
// cost measures. It is the per-trial result schema of the spreadd service,
// of spreadsim -json, and of the internal/store result log.
type TrialResult struct {
	Trial TrialSpec `json:"trial"`
	// Adversary is the concrete adversary's self-reported name (for replays,
	// "trace-replay").
	Adversary string `json:"adversary"`
	// Completed is true iff every node received every token.
	Completed bool `json:"completed"`
	// Rounds is the number of rounds executed.
	Rounds int `json:"rounds"`
	// Metrics holds the communication-cost measures.
	Metrics sim.Metrics `json:"metrics"`
	// AmortizedPerToken is Metrics.Messages / k.
	AmortizedPerToken float64 `json:"amortized_per_token"`
	// CompetitiveResidual is Messages − 1·TC(E) (Definition 1.3).
	CompetitiveResidual float64 `json:"competitive_residual"`
	// RoundSeries, when the trial ran under a RunRequest with Record set, is
	// the flight recorder's per-round series in compact columnar form; nil
	// otherwise.
	RoundSeries *RoundSeries `json:"round_series,omitempty"`
}

// ResultFromSweep converts a sweep-layer result into the wire schema.
func ResultFromSweep(r sweep.Result) TrialResult {
	return TrialResult{
		Trial:               SpecFromTrial(r.Trial),
		Adversary:           r.AdversaryName,
		Completed:           r.Res.Completed,
		Rounds:              r.Res.Rounds,
		Metrics:             r.Res.Metrics,
		AmortizedPerToken:   r.Res.Metrics.AmortizedPerToken(r.Trial.K),
		CompetitiveResidual: r.Res.Metrics.Competitive(1),
		RoundSeries:         SeriesFromSnapshot(r.Rounds),
	}
}

// RoundSeries is the wire form of a flight-recorder snapshot: a columnar,
// compressible encoding of []sim.RoundSample. Rounds and Known — the two
// monotone columns — are delta-encoded (first entry absolute, every later
// entry the increase over its predecessor; at stride 1 the Rounds column is
// all 1s after its head). The window-delta columns are carried raw, and a
// column that is zero everywhere is omitted entirely, so a unicast series
// pays nothing for the broadcast column and vice versa. All columns that
// are present have length Len().
type RoundSeries struct {
	Stride   int   `json:"stride"`
	Capacity int   `json:"capacity"`
	Dropped  int64 `json:"dropped,omitempty"`

	Rounds []int64 `json:"rounds"`
	Known  []int64 `json:"known"`

	Messages             []int64 `json:"messages,omitempty"`
	Broadcasts           []int64 `json:"broadcasts,omitempty"`
	TokenPayloads        []int64 `json:"token_payloads,omitempty"`
	RequestPayloads      []int64 `json:"request_payloads,omitempty"`
	CompletenessPayloads []int64 `json:"completeness_payloads,omitempty"`
	WalkPayloads         []int64 `json:"walk_payloads,omitempty"`
	ControlPayloads      []int64 `json:"control_payloads,omitempty"`
	Learned              []int64 `json:"learned,omitempty"`
	Arrived              []int64 `json:"arrived,omitempty"`
	TC                   []int64 `json:"tc,omitempty"`
	Removals             []int64 `json:"removals,omitempty"`
	Promotions           []int64 `json:"promotions,omitempty"`
	Demotions            []int64 `json:"demotions,omitempty"`
	Nanos                []int64 `json:"nanos,omitempty"`
}

// Len returns the number of samples the series holds.
func (s *RoundSeries) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Rounds)
}

// column extracts one raw column, returning nil when every entry is zero.
func column(samples []sim.RoundSample, get func(*sim.RoundSample) int64) []int64 {
	any := false
	for i := range samples {
		if get(&samples[i]) != 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	out := make([]int64, len(samples))
	for i := range samples {
		out[i] = get(&samples[i])
	}
	return out
}

// deltaColumn extracts one monotone column delta-encoded: out[0] is the
// absolute head, out[i] = col[i] − col[i−1].
func deltaColumn(samples []sim.RoundSample, get func(*sim.RoundSample) int64) []int64 {
	out := make([]int64, len(samples))
	var prev int64
	for i := range samples {
		v := get(&samples[i])
		out[i] = v - prev
		prev = v
	}
	return out
}

// SeriesFromSnapshot encodes a recorder snapshot into wire form; a nil
// snapshot encodes to nil.
func SeriesFromSnapshot(snap *sim.RecorderSnapshot) *RoundSeries {
	if snap == nil {
		return nil
	}
	ss := snap.Samples
	return &RoundSeries{
		Stride:   snap.Stride,
		Capacity: snap.Capacity,
		Dropped:  snap.Dropped,

		Rounds: deltaColumn(ss, func(s *sim.RoundSample) int64 { return int64(s.Round) }),
		Known:  deltaColumn(ss, func(s *sim.RoundSample) int64 { return s.Known }),

		Messages:             column(ss, func(s *sim.RoundSample) int64 { return s.Messages }),
		Broadcasts:           column(ss, func(s *sim.RoundSample) int64 { return s.Broadcasts }),
		TokenPayloads:        column(ss, func(s *sim.RoundSample) int64 { return s.TokenPayloads }),
		RequestPayloads:      column(ss, func(s *sim.RoundSample) int64 { return s.RequestPayloads }),
		CompletenessPayloads: column(ss, func(s *sim.RoundSample) int64 { return s.CompletenessPayloads }),
		WalkPayloads:         column(ss, func(s *sim.RoundSample) int64 { return s.WalkPayloads }),
		ControlPayloads:      column(ss, func(s *sim.RoundSample) int64 { return s.ControlPayloads }),
		Learned:              column(ss, func(s *sim.RoundSample) int64 { return s.Learned }),
		Arrived:              column(ss, func(s *sim.RoundSample) int64 { return s.Arrived }),
		TC:                   column(ss, func(s *sim.RoundSample) int64 { return s.TC }),
		Removals:             column(ss, func(s *sim.RoundSample) int64 { return s.Removals }),
		Promotions:           column(ss, func(s *sim.RoundSample) int64 { return s.Promotions }),
		Demotions:            column(ss, func(s *sim.RoundSample) int64 { return s.Demotions }),
		Nanos:                column(ss, func(s *sim.RoundSample) int64 { return s.Nanos }),
	}
}

// Samples decodes the series back into chronological sim.RoundSample
// records — the inverse of SeriesFromSnapshot for every column present.
// Absent (all-zero) columns decode to zeros. A nil series decodes to nil.
func (s *RoundSeries) Samples() []sim.RoundSample {
	if s == nil {
		return nil
	}
	n := len(s.Rounds)
	out := make([]sim.RoundSample, n)
	raw := func(col []int64, set func(*sim.RoundSample, int64)) {
		if len(col) != n {
			return
		}
		for i := range out {
			set(&out[i], col[i])
		}
	}
	var round, known int64
	for i := range out {
		round += s.Rounds[i]
		out[i].Round = int(round)
		if i < len(s.Known) {
			known += s.Known[i]
			out[i].Known = known
		}
	}
	raw(s.Messages, func(r *sim.RoundSample, v int64) { r.Messages = v })
	raw(s.Broadcasts, func(r *sim.RoundSample, v int64) { r.Broadcasts = v })
	raw(s.TokenPayloads, func(r *sim.RoundSample, v int64) { r.TokenPayloads = v })
	raw(s.RequestPayloads, func(r *sim.RoundSample, v int64) { r.RequestPayloads = v })
	raw(s.CompletenessPayloads, func(r *sim.RoundSample, v int64) { r.CompletenessPayloads = v })
	raw(s.WalkPayloads, func(r *sim.RoundSample, v int64) { r.WalkPayloads = v })
	raw(s.ControlPayloads, func(r *sim.RoundSample, v int64) { r.ControlPayloads = v })
	raw(s.Learned, func(r *sim.RoundSample, v int64) { r.Learned = v })
	raw(s.Arrived, func(r *sim.RoundSample, v int64) { r.Arrived = v })
	raw(s.TC, func(r *sim.RoundSample, v int64) { r.TC = v })
	raw(s.Removals, func(r *sim.RoundSample, v int64) { r.Removals = v })
	raw(s.Promotions, func(r *sim.RoundSample, v int64) { r.Promotions = v })
	raw(s.Demotions, func(r *sim.RoundSample, v int64) { r.Demotions = v })
	raw(s.Nanos, func(r *sim.RoundSample, v int64) { r.Nanos = v })
	return out
}

// ShardRequest is the wire form of one planned shard of a distributed
// sweep: a contiguous, key-sorted slice of the deduplicated trial list,
// dispatched by a cluster coordinator to one spreadd worker. Shard
// boundaries are a deterministic function of the trial set alone (see
// internal/cluster's planner), never of the worker pool, so the same grid
// always produces the same shards.
type ShardRequest struct {
	// Shard is this shard's index in the plan; Shards is the plan size.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Keys[i] is the content address (Key) of Trials[i].
	Keys []string `json:"keys"`
	// Trials are the specs to execute, sorted by key.
	Trials []TrialSpec `json:"trials"`
	// Record, when non-nil, asks the worker to flight-record every trial of
	// the shard (propagated verbatim from the coordinator's RunRequest).
	Record *RecordSpec `json:"record,omitempty"`
}

// RunRequest converts the shard into the POST /v1/runs body a worker
// executes. Workers are plain spreadd daemons: sharding is invisible to
// them, which is what lets any mix of versions and hosts serve a sweep.
func (s ShardRequest) RunRequest() RunRequest {
	return RunRequest{Trials: s.Trials, Record: s.Record}
}

// RunSpecs executes wire-form trials on the sweep worker pool and returns
// their results in input order. onResult, when non-nil, is invoked once per
// completed trial as soon as its result is available, under the sweep
// layer's OnResult contract (concurrent calls, completion order, nothing
// after RunSpecs returns). Error and cancellation semantics match
// sweep.Run: the first error wins and no results are returned.
func RunSpecs(ctx context.Context, specs []TrialSpec, parallelism int, onResult func(i int, r TrialResult)) ([]TrialResult, error) {
	return RunSpecsWith(nil, nil, parallelism)(ctx, specs, nil, onResult)
}

// RunSpecsWith returns a runner over a sweep pool of parallelism workers
// (<= 0 selects GOMAXPROCS) that behaves like RunSpecs and additionally
// records into pm (trials started/completed/failed, rounds and messages
// totals, per-trial duration histogram) and, when tr is non-nil, opens one
// span per trial parented on the span context the ctx carries. A non-nil
// rec attaches a flight recorder to every trial, so each result carries its
// RoundSeries. The spreadd service installs one of these as its default
// runner, which is how a worker daemon's /v1/metrics reports sweep-pool
// throughput and its job traces reach trial granularity. Either handle may
// be nil.
func RunSpecsWith(pm *sweep.PoolMetrics, tr *tracing.Tracer, parallelism int) func(ctx context.Context, specs []TrialSpec, rec *RecordSpec, onResult func(i int, r TrialResult)) ([]TrialResult, error) {
	return func(ctx context.Context, specs []TrialSpec, rec *RecordSpec, onResult func(i int, r TrialResult)) ([]TrialResult, error) {
		trials := make([]sweep.Trial, len(specs))
		for i, s := range specs {
			if s.Replay {
				return nil, fmt.Errorf("dynspread: spec %d replays a recorded trace, which is not part of the wire schema (use Config.Replay in-process)", i)
			}
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("%w (spec %d)", err, i)
			}
			trials[i] = s.sweepTrial()
		}
		out := make([]TrialResult, len(specs))
		var recCfg *sim.RecorderConfig
		if rec != nil {
			if err := rec.Validate(); err != nil {
				return nil, err
			}
			cfg := rec.RecorderConfig()
			recCfg = &cfg
		}
		opts := sweep.Options{
			Parallelism: parallelism,
			Metrics:     pm,
			Tracer:      tr,
			Recorder:    recCfg,
			OnResult: func(i int, r sweep.Result) {
				tr := ResultFromSweep(r)
				out[i] = tr
				if onResult != nil {
					onResult(i, tr)
				}
			},
		}
		if _, err := sweep.Run(ctx, trials, opts); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// StreamEvent is one line of a streaming response: the JSONL schema of
// POST /v1/runs?stream=1 and GET /v1/jobs/{id}/stream. Type discriminates:
//
//	"job"      first line: the job's identity and total trial count
//	"result"   one completed trial (Index into the job's spec list + Result);
//	           emitted only while the stream is keeping up
//	"round_series" the flight-recorder series of one completed trial (Index
//	           + Series), emitted right after the trial's "result" event on
//	           recorded jobs; consumers that only want curves can skip the
//	           full results and collect these
//	"overflow" the consumer fell behind the bounded send buffer; per-trial
//	           results stop and periodic "summary" lines follow (fetch
//	           GET /v1/jobs/{id} for the full result set)
//	"summary"  periodic progress (Completed/Total), in summary mode and as
//	           a keep-alive between results
//	"done"     final line: terminal state, counts, and the error if any
type StreamEvent struct {
	Type string `json:"type"`
	// ID is the job ID (set on "job" and "done" events).
	ID string `json:"id,omitempty"`
	// Index is the trial's position in the job's spec list ("result" and
	// "round_series").
	Index int `json:"index"`
	// Result is the completed trial ("result" only).
	Result *TrialResult `json:"result,omitempty"`
	// Series is the trial's flight-recorder series ("round_series" only).
	Series *RoundSeries `json:"series,omitempty"`
	// State is the job state ("job" and "done").
	State     string `json:"state,omitempty"`
	Completed int    `json:"completed,omitempty"`
	Total     int    `json:"total,omitempty"`
	Error     string `json:"error,omitempty"`
}
