package adversary

import (
	"fmt"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/trace"
)

// Trace replay: the dynamics of a recorded (or externally imported)
// trace.GraphTrace, re-served round by round. Replaying the trace of a run
// together with the run's algorithm and seed reproduces the original
// execution — including its Metrics — exactly, because the engine's only
// other randomness source is the seed-derived node streams. Past the end of
// the trace the last recorded graph persists (a static tail), so replays of
// a completed run against a slower algorithm still terminate meaningfully.
//
// Replay adversaries are not registered in the component registry — they
// need a trace, not a seed — and are instead reached through the scenario
// layer (trace-backed dynamics) and the spreadsim -replay flag.

// ReplayName is the self-reported adversary name of trace replays.
const ReplayName = "trace-replay"

// Replay serves a recorded trace to executions of either communication
// mode (in broadcast mode it ignores the committed choices — a trace has
// already fixed its mind). It applies the trace's events incrementally; the
// engine requests rounds in increasing order, which is the only access
// pattern the cursor supports.
type Replay struct {
	tr     *trace.GraphTrace
	cur    *graph.Graph
	pos    int // rounds applied so far
	served pair
}

// NewReplay validates the trace and returns its replay dynamics. Like every
// adversary, a Replay is stateful: one instance per execution.
func NewReplay(tr *trace.GraphTrace) (*Replay, error) {
	if tr == nil {
		return nil, fmt.Errorf("adversary: nil replay trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &Replay{tr: tr, cur: graph.New(tr.N)}, nil
}

// Name implements sim.Adversary.
func (a *Replay) Name() string { return ReplayName }

// NextGraph implements sim.Adversary: it applies the trace's rounds up to
// v.Round, each round's adds before its deletes, and serves a copy.
func (a *Replay) NextGraph(v *sim.View) *graph.Graph {
	for a.pos < v.Round && a.pos < len(a.tr.Rounds) {
		ev := a.tr.Rounds[a.pos]
		for _, e := range ev.Add {
			a.cur.AddEdge(e[0], e[1])
		}
		for _, e := range ev.Del {
			a.cur.RemoveEdge(e[0], e[1])
		}
		a.pos++
	}
	return a.served.copyOf(a.cur)
}
