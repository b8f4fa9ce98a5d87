package dynspread

import (
	"fmt"
	"io"

	// Register the bundled adversaries; core (imported for ObliviousOpts)
	// registers the bundled algorithms the same way. The sweep layer pulls
	// in internal/scenario, which registers the bundled scenarios.
	_ "dynspread/internal/adversary"
	"dynspread/internal/core"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/sweep"
	"dynspread/internal/trace"
	"dynspread/internal/wire"
)

// Metrics re-exports the engine's communication-cost measures (messages per
// Definition 1.1, TC(E) per Definition 1.3, token learnings, rounds).
type Metrics = sim.Metrics

// Algorithm selects one of the paper's token-forwarding algorithms. The
// value is a registry name: any algorithm registered through
// internal/registry (including ones added after this facade was written)
// can be selected by its name.
type Algorithm string

// Algorithms bundled with the simulator.
const (
	// AlgFlooding is the naive local-broadcast flooder (Section 1; the
	// O(n²)-amortized upper bound matching Theorem 2.3's lower bound).
	AlgFlooding Algorithm = "flooding"
	// AlgRandomBroadcast broadcasts a random held token each round.
	AlgRandomBroadcast Algorithm = "random-broadcast"
	// AlgSingleSource is Algorithm 1 (Single-Source-Unicast, Theorem 3.1).
	AlgSingleSource Algorithm = "single-source"
	// AlgMultiSource is Multi-Source-Unicast (Section 3.2.1, Theorem 3.5).
	AlgMultiSource Algorithm = "multi-source"
	// AlgOblivious is Algorithm 2 (Oblivious-Multi-Source-Unicast,
	// Theorem 3.8).
	AlgOblivious Algorithm = "oblivious"
	// AlgSpanningTree is the static-network baseline from the introduction.
	AlgSpanningTree Algorithm = "spanning-tree"
	// AlgTopkis is the second static baseline (Topkis [39]): every node
	// pushes an unsent token to every neighbor every round — O(n+k) rounds
	// but Θ(m(n+k)) messages.
	AlgTopkis Algorithm = "topkis"
)

// Adversary selects the dynamic-network adversary, again by registry name.
type Adversary string

// Scenario selects a registered workload by name: the scenario supplies the
// instance shape, the dynamics, and the token arrival schedule, so a Config
// with a Scenario needs nothing beyond a seed (and, optionally, an
// Algorithm overriding the scenario's default).
type Scenario string

// Scenarios bundled with the simulator (the former examples, plus streaming
// workloads); see internal/scenario for their definitions.
const (
	// ScenQuickstart is the README quickstart: one source, σ=3 churn.
	ScenQuickstart Scenario = "quickstart"
	// ScenSensornet is wireless n-gossip against the free-edge adversary.
	ScenSensornet Scenario = "sensornet"
	// ScenP2PChurn is n-gossip on a churning P2P overlay (k = s = n).
	ScenP2PChurn Scenario = "p2pchurn"
	// ScenMobileMesh is one source's tokens over a unit-disk mobility trace.
	ScenMobileMesh Scenario = "mobilemesh"
	// ScenStreaming is one source streaming k ≫ n tokens against the
	// strongly adaptive request cutter.
	ScenStreaming Scenario = "streaming"
	// ScenWalkCenters is n-gossip on oblivious near-regular dynamics.
	ScenWalkCenters Scenario = "walkcenters"
	// ScenTokenStream feeds 2 tokens/round into one source under churn
	// (a streaming arrival schedule).
	ScenTokenStream Scenario = "token-stream"
	// ScenBurstyGossip feeds Poisson-like arrivals into 4 sources over
	// edge-Markovian fading links.
	ScenBurstyGossip Scenario = "bursty-gossip"
)

// GraphTrace is a recorded per-round edge-event stream: the dynamics of one
// execution, serialized as JSONL (see internal/trace). Record one with
// RunRecorded, persist it with its Write method, load it with ReadTrace,
// and replay it through Config.Replay for bit-exact reproduction.
type GraphTrace = trace.GraphTrace

// ReadTrace parses a JSONL graph trace (as written by GraphTrace.Write).
func ReadTrace(r io.Reader) (*GraphTrace, error) { return trace.ReadGraphTrace(r) }

// Adversaries bundled with the simulator.
const (
	// AdvStatic serves a fixed random connected graph.
	AdvStatic Adversary = "static"
	// AdvChurn is σ-edge-stable random churn (σ = Config.Sigma, default 3).
	AdvChurn Adversary = "churn"
	// AdvRewire draws a fresh random connected graph every round.
	AdvRewire Adversary = "rewire"
	// AdvMarkovian is the edge-Markovian evolving graph.
	AdvMarkovian Adversary = "markovian"
	// AdvRegular serves fresh random near-regular graphs (the oblivious
	// substrate of Algorithm 2 and Lemma 3.7).
	AdvRegular Adversary = "regular"
	// AdvRotatingStar rotates a star center — the classic hard dynamic
	// instance where Θ(n) edges change per rotation.
	AdvRotatingStar Adversary = "rotating-star"
	// AdvMobility is a wireless mobility model: unit-disk graphs of nodes
	// drifting through an arena (the paper's ad-hoc motivation).
	AdvMobility Adversary = "mobility"
	// AdvRequestCutter is the strongly adaptive unicast adversary that cuts
	// request-carrying edges (stresses Theorems 3.1/3.5).
	AdvRequestCutter Adversary = "request-cutter"
	// AdvFreeEdge is the Section 2 strongly adaptive local-broadcast
	// lower-bound adversary (broadcast algorithms only).
	AdvFreeEdge Adversary = "free-edge"
)

// Config describes one simulation.
type Config struct {
	// Scenario, when non-empty, selects a registered workload supplying the
	// instance shape, dynamics, and arrival schedule. N/K/Sources must stay
	// zero; Algorithm and Adversary, when set, override the scenario's
	// defaults.
	Scenario Scenario
	// N is the number of nodes (>= 2) and K the number of tokens (>= 1).
	N, K int
	// Sources is the number of source nodes s: 1 = single source, N with
	// K = N is n-gossip; tokens are distributed round-robin over sources
	// 0..s-1. Defaults to 1.
	Sources int
	// Algorithm and Adversary select the protocol and the dynamic topology.
	Algorithm Algorithm
	Adversary Adversary
	// Replay, when non-nil, replays a recorded graph trace as the dynamics
	// instead of a live adversary (it takes precedence over Adversary).
	Replay *GraphTrace
	// Seed derives every random choice. Runs are reproducible given equal
	// configs.
	Seed int64
	// MaxRounds caps the execution (0 = a generous default well above the
	// paper's O(nk) bounds).
	MaxRounds int
	// Sigma is the edge-stability parameter for AdvChurn (default 3, the
	// assumption of Theorems 3.4/3.6).
	Sigma int
	// Oblivious tunes Algorithm 2 (zero value = paper parameters).
	Oblivious core.ObliviousOpts
	// Workspace, if non-nil, supplies reusable engine buffers for
	// allocation-free repeated runs. Not safe for concurrent use; see
	// sim.Workspace.
	Workspace *sim.Workspace
	// Recorder, if non-nil, attaches a flight recorder sampling per-round
	// dynamics into its preallocated ring (see sim.NewRecorder); the run's
	// series lands on TrialResult.RoundSeries. Like Workspace it is reusable
	// across sequential runs (each run resets it) but not concurrency-safe.
	Recorder *sim.Recorder
}

// Run executes one simulation described by cfg and returns the
// service-schema result: the RESOLVED trial (scenario names expanded into
// their concrete shape, algorithm, dynamics, and arrival schedule) paired
// with the engine metrics and the paper's derived cost measures — the same
// JSON object the spreadd service returns per trial and spreadsim -json
// prints. Scenarios, algorithms, and adversaries are resolved by name
// through their registries (via the sweep layer's single trial runner), so
// components registered by other packages work here too.
func Run(cfg Config) (*TrialResult, error) { return run(cfg, nil) }

// RunRecorded is Run that additionally records the execution's dynamics as
// a replayable GraphTrace: running the same Config with Replay set to the
// returned trace (live adversary replaced by the recording) reproduces the
// execution — including its Metrics — exactly.
func RunRecorded(cfg Config) (*TrialResult, *GraphTrace, error) {
	tr := &GraphTrace{}
	res, err := run(cfg, tr.Append)
	if err != nil {
		return nil, nil, err
	}
	// The resolved trial carries the shape: a scenario supplies its own N.
	tr.N = res.Trial.N
	return res, tr, nil
}

func run(cfg Config, onDelta func(graph.Diff)) (*TrialResult, error) {
	if cfg.Scenario == "" {
		if cfg.N < 2 {
			return nil, fmt.Errorf("dynspread: need N >= 2, got %d", cfg.N)
		}
		if cfg.K < 1 {
			return nil, fmt.Errorf("dynspread: need K >= 1, got %d", cfg.K)
		}
	}
	algName := string(cfg.Algorithm)
	advName := string(cfg.Adversary)
	if cfg.Scenario == "" {
		// Scenario runs leave blanks for the scenario's own defaults;
		// direct runs keep the facade's classic defaults.
		if algName == "" {
			algName = string(AlgSingleSource)
		}
		// A replay ignores the adversary entirely; leaving the name blank
		// keeps resolved trials honest about which dynamics actually ran.
		if advName == "" && cfg.Replay == nil {
			advName = string(AdvStatic)
		}
	}
	r, err := sweep.RunTrialRecorded(sweep.Trial{
		Scenario: string(cfg.Scenario),
		N:        cfg.N, K: cfg.K, Sources: cfg.Sources,
		Algorithm: algName,
		Adversary: advName,
		Replay:    cfg.Replay,
		Seed:      cfg.Seed,
		MaxRounds: cfg.MaxRounds,
		Sigma:     cfg.Sigma,
		Options:   cfg.Oblivious,
		OnDelta:   onDelta,
	}, cfg.Workspace, cfg.Recorder)
	if err != nil {
		return nil, fmt.Errorf("dynspread: %w", err)
	}
	res := wire.ResultFromSweep(r)
	return &res, nil
}
