package dynspread

// The wire schema of the simulation service lives in internal/wire so the
// service, cluster, and store layers can share it without importing this
// facade; every type is re-exported here as an alias, so to public callers
// (and to the JSON on the wire) nothing moved. A TrialSpec names its
// algorithm, adversary, and scenario by registry name instead of holding
// them, which is what lets the same JSON object describe a run to a remote
// daemon exactly as it does to an in-process call, and lets its canonical
// encoding serve as a content address for run caching and the persistent
// result store.

import (
	"context"

	"dynspread/internal/wire"
)

// TrialSpec is the wire form of one fully specified trial: the JSON schema
// accepted per-trial by POST /v1/runs and emitted by spreadsim -json. See
// wire.TrialSpec for field semantics; executions are deterministic
// functions of a TrialSpec, which is what makes specs content-addressable.
type TrialSpec = wire.TrialSpec

// GridSpec is the wire form of a sweep grid (see sweep.Grid for the axis
// semantics): the JSON schema accepted by POST /v1/runs for sweep jobs.
type GridSpec = wire.GridSpec

// RunRequest is the body of POST /v1/runs: explicit trials, a grid to
// expand, or both (explicit trials run first).
type RunRequest = wire.RunRequest

// TrialResult is the wire form of one executed trial: the RESOLVED spec
// plus the engine outcome and the paper's derived cost measures.
type TrialResult = wire.TrialResult

// ShardRequest is the wire form of one planned shard of a distributed
// sweep (see internal/cluster).
type ShardRequest = wire.ShardRequest

// StreamEvent is one JSONL line of a streaming run (POST /v1/runs?stream=1
// or GET /v1/jobs/{id}/stream); see wire.StreamEvent for the event types
// and the backpressure contract.
type StreamEvent = wire.StreamEvent

// Wire-level shape limits; see the internal/wire definitions for rationale.
const (
	// MaxWireN is the largest node count accepted over the wire.
	MaxWireN = wire.MaxWireN
	// MaxWireK is the largest token count accepted over the wire.
	MaxWireK = wire.MaxWireK
	// MaxWireRounds is the largest explicit round cap (or arrival round)
	// accepted over the wire.
	MaxWireRounds = wire.MaxWireRounds
	// MaxWireTrials bounds the number of trials one grid may expand to.
	MaxWireTrials = wire.MaxWireTrials
)

// RunSpecs executes wire-form trials on the sweep worker pool and returns
// their results in input order. onResult, when non-nil, is invoked once per
// completed trial as soon as its result is available, under the sweep
// layer's OnResult contract (concurrent calls, completion order, nothing
// after RunSpecs returns). Error and cancellation semantics match
// sweep.Run: the first error wins and no results are returned.
func RunSpecs(ctx context.Context, specs []TrialSpec, parallelism int, onResult func(i int, r TrialResult)) ([]TrialResult, error) {
	return wire.RunSpecs(ctx, specs, parallelism, onResult)
}
