// Package sweep is the high-throughput trial-execution layer on top of the
// unified round engine: declarative trial grids (N×K×algorithm×adversary×
// seeds, plus a scenarios axis), a worker pool sized to GOMAXPROCS, and
// per-worker reuse of the engine's graph/bitset/message buffers so sweeping
// thousands of trials allocates far less than calling the engine cold per
// trial. Algorithms, adversaries, and scenarios are resolved by name through
// their registries, so anything registered anywhere in the program is
// sweepable — including workloads with streaming token arrivals and
// trace-replay dynamics.
package sweep

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"dynspread/internal/adversary"
	"dynspread/internal/graph"
	"dynspread/internal/registry"
	"dynspread/internal/scenario"
	"dynspread/internal/sim"
	"dynspread/internal/token"
	"dynspread/internal/trace"
	"dynspread/internal/tracing"
)

// Trial is one fully specified execution.
type Trial struct {
	// Scenario, when non-empty, resolves a registered workload: the scenario
	// supplies N/K/Sources, the dynamics, the arrival schedule, and defaults
	// for Algorithm/Sigma/MaxRounds/Options. A scenario trial must leave
	// N/K/Sources zero — or repeat the scenario's own shape exactly, so a
	// RESOLVED trial (as returned in Result.Trial or a service TrialResult)
	// can be fed back in verbatim. Algorithm and Adversary may be set to
	// override the scenario's defaults (crossing one workload with many
	// algorithms or alternative dynamics).
	Scenario string
	// N and K are the node and token counts; Sources defaults to 1.
	N, K, Sources int
	// Algorithm and Adversary are registry names.
	Algorithm, Adversary string
	// Replay, when non-nil, replays a recorded per-round edge-event stream
	// as the dynamics instead of a live adversary (it takes precedence over
	// Adversary). Replayed graphs reproduce the recorded topology exactly.
	Replay *trace.GraphTrace
	// Arrivals, when non-nil, is the engine-level token arrival schedule
	// (entry t = round token t is injected at its source; see
	// sim.UnicastConfig.ArrivalSchedule). Scenario trials materialize it
	// from the scenario's Schedule when unset.
	Arrivals []int
	// Seed derives all randomness of the trial.
	Seed int64
	// MaxRounds caps the execution (0 = sim.DefaultMaxRounds).
	MaxRounds int
	// Sigma is the churn stability parameter (0 = default 3).
	Sigma int
	// CheckStability, when > 0, makes the execution verify the adversary is
	// σ-edge-stable, in either communication mode (see
	// sim.UnicastConfig.CheckStability).
	CheckStability int
	// Options and AdvOptions carry algorithm- and adversary-specific
	// options (see registry.Params).
	Options    any
	AdvOptions any
	// OnDelta, if non-nil, receives every round's topology change after
	// delivery, once per round and in round order; d is valid only during
	// the call. (*trace.GraphTrace).Append is such a hook: it is how runs
	// are recorded into replayable traces.
	OnDelta func(d graph.Diff)
}

func (t Trial) String() string {
	if t.Scenario != "" {
		alg := t.Algorithm
		if alg == "" {
			alg = "<scenario default>"
		}
		return fmt.Sprintf("scenario %s×%s seed=%d", t.Scenario, alg, t.Seed)
	}
	return fmt.Sprintf("%s×%s n=%d k=%d s=%d seed=%d", t.Algorithm, t.dynamics(), t.N, t.K, t.Sources, t.Seed)
}

// dynamics names the trial's dynamics: its adversary, or adversary.ReplayName
// when a recorded trace replaces the adversary.
func (t Trial) dynamics() string {
	if t.Replay != nil {
		return adversary.ReplayName
	}
	return t.Adversary
}

// resolveScenario expands a scenario trial into a concrete one. Precedence
// for the dynamics: an explicit Replay, then an explicit Adversary override,
// then the scenario's own trace or adversary.
func resolveScenario(t Trial) (Trial, error) {
	if t.Scenario == "" {
		return t, nil
	}
	spec, err := scenario.LookupScenario(t.Scenario)
	if err != nil {
		return t, err
	}
	// The scenario defines the shape: a trial may leave N/K/Sources zero or
	// repeat the scenario's values verbatim (which is what a resolved trial
	// round-tripped through the wire schema carries), but never override
	// them.
	if (t.N != 0 && t.N != spec.N) || (t.K != 0 && t.K != spec.K) ||
		(t.Sources != 0 && t.Sources != spec.NumSources()) {
		return t, fmt.Errorf("trial overrides scenario %q's shape n=%d k=%d s=%d with n=%d k=%d s=%d (the scenario defines the shape)",
			t.Scenario, spec.N, spec.K, spec.NumSources(), t.N, t.K, t.Sources)
	}
	t.N, t.K, t.Sources = spec.N, spec.K, spec.NumSources()
	if t.Algorithm == "" {
		t.Algorithm = spec.DefaultAlgorithm
	}
	if t.Replay == nil && t.Adversary == "" {
		t.Adversary = spec.Adversary
		t.Replay = spec.Trace
	}
	if t.Sigma == 0 {
		t.Sigma = spec.Sigma
	}
	if t.MaxRounds == 0 {
		t.MaxRounds = spec.MaxRounds
	}
	if t.Options == nil {
		t.Options = spec.Options
	}
	if t.AdvOptions == nil {
		t.AdvOptions = spec.AdvOptions
	}
	if t.Arrivals == nil {
		arr, err := spec.ArrivalRounds(t.Seed)
		if err != nil {
			return t, err
		}
		t.Arrivals = arr
	}
	return t, nil
}

// Grid declares a cross product of trials along two families of axes.
//
// The classic family crosses Ns × Ks × Sources × Algorithms × Adversaries ×
// Seeds; Ns, Ks, Algorithms, and Adversaries are required for it (Sources →
// 1 and Seeds → {0} by default). The Scenarios axis additionally crosses
// registered workloads against Algorithms (empty → each scenario's default
// algorithm) and Seeds. A grid may use either family or both; RunGrid only
// rejects a grid that expands to no trials at all.
type Grid struct {
	Ns, Ks      []int
	Sources     []int
	Algorithms  []string
	Adversaries []string
	// Scenarios lists registered scenario names to sweep.
	Scenarios []string
	Seeds     []int64
	// MaxRounds, Sigma, CheckStability, Options, and AdvOptions apply to
	// every trial of the grid.
	MaxRounds      int
	Sigma          int
	CheckStability int
	Options        any
	AdvOptions     any
}

// Cardinality returns the number of trials Trials will produce, without
// materializing anything, saturating at math.MaxInt. It mirrors Trials'
// cross-product and axis-defaulting semantics exactly — the two must be
// changed together (a new axis added to Trials must be multiplied in here),
// which is why this lives next to the loop instead of in a caller: wire
// layers use it to reject memory-exhausting grids BEFORE expansion.
func (g Grid) Cardinality() int {
	satMul := func(a, b int) int {
		if a == 0 || b == 0 {
			return 0
		}
		if a > math.MaxInt/b {
			return math.MaxInt
		}
		return a * b
	}
	orOne := func(n int) int {
		if n == 0 {
			return 1
		}
		return n
	}
	classic := satMul(len(g.Ns), satMul(len(g.Ks), satMul(orOne(len(g.Sources)),
		satMul(len(g.Algorithms), satMul(len(g.Adversaries), orOne(len(g.Seeds)))))))
	scenario := satMul(len(g.Scenarios), satMul(orOne(len(g.Algorithms)), orOne(len(g.Seeds))))
	if classic > math.MaxInt-scenario {
		return math.MaxInt
	}
	return classic + scenario
}

// Trials expands the grid in deterministic order: the classic family first
// (n, k, sources, algorithm, adversary, seed — seeds innermost so
// replicates of one cell are adjacent), then the scenario family (scenario,
// algorithm, seed).
func (g Grid) Trials() []Trial {
	sources := g.Sources
	if len(sources) == 0 {
		sources = []int{1}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	var out []Trial
	for _, n := range g.Ns {
		for _, k := range g.Ks {
			for _, s := range sources {
				for _, alg := range g.Algorithms {
					for _, adv := range g.Adversaries {
						for _, seed := range seeds {
							out = append(out, Trial{
								N: n, K: k, Sources: s,
								Algorithm: alg, Adversary: adv,
								Seed:           seed,
								MaxRounds:      g.MaxRounds,
								Sigma:          g.Sigma,
								CheckStability: g.CheckStability,
								Options:        g.Options,
								AdvOptions:     g.AdvOptions,
							})
						}
					}
				}
			}
		}
	}
	algs := g.Algorithms
	if len(algs) == 0 {
		algs = []string{""} // each scenario's default algorithm
	}
	for _, sc := range g.Scenarios {
		for _, alg := range algs {
			for _, seed := range seeds {
				out = append(out, Trial{
					Scenario:       sc,
					Algorithm:      alg,
					Seed:           seed,
					MaxRounds:      g.MaxRounds,
					Sigma:          g.Sigma,
					CheckStability: g.CheckStability,
					Options:        g.Options,
					AdvOptions:     g.AdvOptions,
				})
			}
		}
	}
	return out
}

// Result pairs a trial with its engine outcome.
type Result struct {
	// Trial is the RESOLVED trial: for scenario trials the shape, dynamics,
	// and arrival schedule are filled in from the scenario spec.
	Trial Trial
	// AdversaryName is the concrete adversary's self-reported name.
	AdversaryName string
	Res           *sim.Result
	// Rounds, when the trial ran with a flight recorder, is the recorded
	// per-round series (see sim.RecorderSnapshot); nil otherwise.
	Rounds *sim.RecorderSnapshot
}

// RunTrial resolves and executes one trial. ws, when non-nil, supplies
// reusable engine buffers (single-goroutine use only). It returns the
// result paired with the RESOLVED trial (scenario names expanded into their
// concrete shape, algorithm, dynamics, and arrival schedule) and the
// adversary's self-reported name. This is the one place in the codebase
// that turns (scenario, algorithm, adversary) names into an engine
// execution; the dynspread facade and the worker pool both call it.
func RunTrial(t Trial, ws *sim.Workspace) (Result, error) {
	return RunTrialRecorded(t, ws, nil)
}

// RunTrialRecorded is RunTrial with a flight recorder attached: rec, when
// non-nil, records the execution's per-round series, and the returned
// Result.Rounds carries its snapshot. Like the workspace, one recorder may
// be reused across a worker's sequential trials (the engine resets it per
// execution); it must not be shared between concurrent trials.
func RunTrialRecorded(t Trial, ws *sim.Workspace, rec *sim.Recorder) (Result, error) {
	t, err := resolveScenario(t)
	if err != nil {
		return Result{Trial: t}, err
	}
	fail := func(err error) (Result, error) { return Result{Trial: t}, err }
	s := t.Sources
	if s <= 0 {
		s = 1
	}
	assign, err := token.Balanced(t.N, t.K, s)
	if err != nil {
		return fail(err)
	}
	alg, err := registry.LookupAlgorithm(t.Algorithm)
	if err != nil {
		return fail(err)
	}
	p := registry.Params{
		N: t.N, K: t.K, Sources: s,
		Seed:       t.Seed,
		Sigma:      t.Sigma,
		Options:    t.Options,
		AdvOptions: t.AdvOptions,
	}
	var a sim.Adversary
	if t.Replay == nil {
		var adv registry.Adversary
		if adv, err = registry.LookupAdversary(t.Adversary); err != nil {
			return fail(err)
		}
		if !adv.Modes.Has(alg.Mode) {
			return fail(fmt.Errorf("adversary %q serves %v executions, not %v algorithms like %q",
				t.Adversary, adv.Modes, alg.Mode, t.Algorithm))
		}
		a, err = adv.New(p)
	} else if t.Replay.N != t.N {
		return fail(fmt.Errorf("replay trace has n=%d, trial has n=%d", t.Replay.N, t.N))
	} else {
		a, err = adversary.NewReplay(t.Replay)
	}
	if err != nil {
		return fail(fmt.Errorf("adversary %q: %w", t.dynamics(), err))
	}
	var res *sim.Result
	switch alg.Mode {
	case registry.Unicast:
		factory, ferr := alg.Unicast(p)
		if ferr != nil {
			return fail(fmt.Errorf("algorithm %q: %w", t.Algorithm, ferr))
		}
		cfg := sim.UnicastConfig{
			Assign:          assign,
			Factory:         factory,
			Adversary:       a,
			MaxRounds:       t.MaxRounds,
			Seed:            t.Seed,
			CheckStability:  t.CheckStability,
			ArrivalSchedule: t.Arrivals,
			Workspace:       ws,
			Recorder:        rec,
		}
		if hook := t.OnDelta; hook != nil {
			cfg.OnRound = func(_ int, d graph.Diff, _ []sim.Message, _ int64) { hook(d) }
		}
		res, err = sim.RunUnicast(cfg)
	case registry.Broadcast:
		factory, ferr := alg.Broadcast(p)
		if ferr != nil {
			return fail(fmt.Errorf("algorithm %q: %w", t.Algorithm, ferr))
		}
		cfg := sim.BroadcastConfig{
			Assign:          assign,
			Factory:         factory,
			Adversary:       a,
			MaxRounds:       t.MaxRounds,
			Seed:            t.Seed,
			CheckStability:  t.CheckStability,
			ArrivalSchedule: t.Arrivals,
			Workspace:       ws,
			Recorder:        rec,
		}
		if hook := t.OnDelta; hook != nil {
			cfg.OnRound = func(_ int, d graph.Diff, _ []token.ID, _ int64) { hook(d) }
		}
		res, err = sim.RunBroadcast(cfg)
	default:
		err = fmt.Errorf("algorithm %q has unsupported mode %v", t.Algorithm, alg.Mode)
	}
	if err != nil {
		return fail(err)
	}
	return Result{Trial: t, AdversaryName: a.Name(), Res: res, Rounds: snapshot(rec)}, nil
}

// snapshot extracts a recorder's series, mapping "no recorder" to nil.
func snapshot(rec *sim.Recorder) *sim.RecorderSnapshot {
	if rec == nil {
		return nil
	}
	s := rec.Snapshot()
	return &s
}

// Options configures Run.
type Options struct {
	// Parallelism is the worker count; <= 0 selects runtime.GOMAXPROCS(0).
	Parallelism int
	// OnResult, when non-nil, is invoked exactly once for every trial that
	// completes successfully, with the trial's input index and its result,
	// as soon as the result is available — this is how long-running callers
	// (the spreadd service's job progress, streaming reporters) observe a
	// sweep mid-flight. Calls are made from the pool's worker goroutines:
	// they run concurrently and in completion order, which under
	// parallelism > 1 is not index order, so the callback must be safe for
	// concurrent use. Trials that fail, or that are never dispatched because
	// of an earlier error or a cancelled context, get no call; no call is
	// made after Run returns.
	OnResult func(i int, r Result)
	// Metrics, when non-nil, records every trial the pool executes
	// (started/completed/failed counters, rounds and messages totals, and a
	// per-trial duration histogram) into the registry it was built on. All
	// updates happen at trial granularity: the round hot path never touches
	// a metric, so the zero-alloc and ns/round gates hold with metrics on.
	Metrics *PoolMetrics
	// Tracer, when non-nil, opens one span per trial — named "trial", a
	// child of whatever span context ctx carries (a job's run span on the
	// spreadd service), attributed with the resolved shape and outcome.
	// Spans exist at TRIAL granularity only: like Metrics, the per-round
	// path records nothing, which is what keeps the alloc and ns/round
	// gates green with tracing enabled (see TestSweepMetricsAllocFree).
	Tracer *tracing.Tracer
	// Recorder, when non-nil, attaches a flight recorder to every trial:
	// each worker builds one sim.Recorder from this config (rings are
	// per-worker and preallocated once, like workspaces) and every Result
	// carries its trial's series in Result.Rounds. Memory cost is
	// workers × Capacity samples, independent of trial count or length.
	Recorder *sim.RecorderConfig
}

// Run executes the trials on a worker pool (sim.ForEach) and returns
// results in input order. Each worker owns one sim.Workspace reused across
// its sequential trials, cutting per-trial allocations. The first error
// wins: workers stop picking up new trials as soon as any trial fails
// (in-flight trials still finish), and Run reports that first-by-index
// error. Cancelling ctx stops the dispatch of further trials the same way —
// already-dispatched trials run to completion and the first undispatched
// index reports the context's error. A nil ctx means context.Background().
func Run(ctx context.Context, trials []Trial, opts Options) ([]Result, error) {
	if len(trials) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(trials))
	i, err := sim.ForEach(len(trials), opts.Parallelism, func() func(i int) error {
		ws := sim.NewWorkspace()
		var rec *sim.Recorder
		if opts.Recorder != nil {
			rec = sim.NewRecorder(*opts.Recorder)
		}
		return func(i int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			var start time.Time
			if opts.Metrics != nil {
				opts.Metrics.started.Inc()
				start = time.Now()
			}
			_, span := opts.Tracer.Start(ctx, "trial")
			r, err := RunTrialRecorded(trials[i], ws, rec)
			annotateTrialSpan(span, i, r, err)
			span.End()
			if opts.Metrics != nil {
				opts.Metrics.observe(start, r, err)
			}
			if err != nil {
				return err
			}
			results[i] = r
			if opts.OnResult != nil {
				opts.OnResult(i, r)
			}
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: trial %d (%s): %w", i, trials[i], err)
	}
	return results, nil
}

// annotateTrialSpan records the resolved trial's identity and outcome on
// its span. The resolved trial (r.Trial) is used even on error — scenario
// resolution fills the shape in before the engine can fail.
func annotateTrialSpan(span *tracing.Span, i int, r Result, err error) {
	t := r.Trial
	span.SetAttrInt("index", int64(i))
	if t.Scenario != "" {
		span.SetAttr("scenario", t.Scenario)
	}
	span.SetAttr("algorithm", t.Algorithm)
	if r.AdversaryName != "" {
		span.SetAttr("adversary", r.AdversaryName)
	} else if t.dynamics() != "" {
		span.SetAttr("adversary", t.dynamics())
	}
	span.SetAttrInt("n", int64(t.N))
	span.SetAttrInt("k", int64(t.K))
	span.SetAttrInt("seed", t.Seed)
	if err != nil {
		span.SetAttr("error", err.Error())
		return
	}
	span.SetAttrInt("rounds", int64(r.Res.Rounds))
	span.SetAttrInt("messages", r.Res.Metrics.Messages)
	span.SetAttr("completed", strconv.FormatBool(r.Res.Completed))
}

// Validate rejects a grid that would expand to fewer trials than its author
// intended: a partially specified classic family, or a grid that names no
// scenarios and is missing a required classic dimension. (Algorithms alone
// does not signal classic intent: it also crosses the Scenarios axis.)
func (g Grid) Validate() error {
	classicIntended := len(g.Ns) > 0 || len(g.Ks) > 0 || len(g.Sources) > 0 || len(g.Adversaries) > 0
	if classicIntended || len(g.Scenarios) == 0 {
		for _, dim := range []struct {
			name  string
			empty bool
		}{
			{"Ns", len(g.Ns) == 0},
			{"Ks", len(g.Ks) == 0},
			{"Algorithms", len(g.Algorithms) == 0},
			{"Adversaries", len(g.Adversaries) == 0},
		} {
			if dim.empty {
				return fmt.Errorf("sweep: grid dimension %s is empty", dim.name)
			}
		}
	}
	return nil
}

// RunGrid expands and runs a grid in one call, rejecting grids that fail
// Validate rather than silently running zero-or-fewer-trials-than-intended.
func RunGrid(ctx context.Context, g Grid, opts Options) ([]Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return Run(ctx, g.Trials(), opts)
}
