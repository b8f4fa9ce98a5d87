package sim

import (
	"fmt"
	"math"
	"sort"

	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// This file holds the engine's one entry point, Run, and the round loop both
// communication modes share. One execution is: setup (knowledge sets,
// per-node protocol instances) and then, per round,
//
//	commit → adversary graph → validate → diff → exchange → observe
//
// where commit is the pre-graph half of the round (local broadcast: nodes
// commit their broadcasts before the strongly adaptive adversary wires the
// graph; unicast: nothing), the engine itself asks the adversary for the
// graph on the shared View (the mode keeps its Choices or LastSent current),
// diff is the round's topology change E⁺_r/E⁻_r against the previous round's
// graph — computed once and read by TC accounting, the σ-stability check and
// the OnRound hook alike — exchange is the post-graph half (unicast:
// BeginRound/Send/validate/deliver; broadcast: deliver the committed
// broadcasts to the round's neighbors), and observe hands the finished round
// to Config.OnRound and the Recorder. The factory set in Config picks the
// engineMode that supplies commit and exchange.

// maxRoundCap bounds every round cap the engine will accept or derive.
// It is far above any instance a simulation can actually execute, while
// leaving enough headroom below math.MaxInt that cap arithmetic (adding the
// last scheduled arrival round) can never wrap around.
const maxRoundCap = math.MaxInt / 4

// DefaultMaxRounds returns a generous round cap for an (n, k) instance:
// well above the paper's O(nk) bounds, so hitting it signals a liveness bug
// or an unsatisfied stability assumption rather than normal slowness. The
// product 40·n·k + 40·n = 40·n·(k+1) saturates at maxRoundCap instead of
// overflowing — absurd (n, k) from the wire would otherwise wrap into a
// negative cap and make every run "complete" after zero rounds.
func DefaultMaxRounds(n, k int) int {
	if n < 0 {
		n = 0
	}
	if k < 0 {
		k = 0
	}
	if n > 0 && (n > maxRoundCap/40 || k >= maxRoundCap) {
		// Guard before computing k+1: k == math.MaxInt would wrap per
		// negative and slip past the ratio check below.
		return maxRoundCap
	}
	per := k + 1
	if n > 0 && per > maxRoundCap/(40*n) {
		return maxRoundCap
	}
	r := 40 * n * per
	if r < 1000 {
		r = 1000
	}
	return r
}

// Config configures one execution. Exactly one of Unicast and Broadcast must
// be set: the factory that is set selects the communication mode.
type Config struct {
	Assign *token.Assignment
	// Unicast builds the nodes' protocols for a unicast execution
	// (Section 3): each round every node learns its round-start neighbors,
	// sends point-to-point messages, and receives its inbox.
	Unicast Factory
	// Broadcast builds the nodes' protocols for a local-broadcast execution
	// (Section 2): every node first commits the token it will locally
	// broadcast (or ⊥); the strongly adaptive adversary then wires the
	// round's connected graph with full knowledge of those choices; finally
	// every broadcast is delivered to the chosen neighbors. Each local
	// broadcast counts as one message (Definition 1.1).
	Broadcast BroadcastFactory
	Adversary Adversary
	// MaxRounds caps the execution; 0 selects DefaultMaxRounds.
	MaxRounds int
	// Seed derives all node randomness (each node gets an independent
	// stream).
	Seed int64
	// CheckStability, when > 0, verifies that the adversary's sequence is
	// σ-edge-stable and fails the run otherwise. This guards experiments
	// whose theorems assume 3-edge stability.
	CheckStability int
	// ArrivalSchedule, when non-nil, streams the token supply: entry t is
	// the round token t is injected at its source (0 = present before round
	// 1, the classic instance). Len must equal K. nil reproduces the
	// all-tokens-at-round-0 semantics bit for bit. Late arrivals require the
	// protocol to implement TokenArriver.
	ArrivalSchedule []int
	// OnRound, if non-nil, observes every round after delivery: the round
	// number, the round's topology change against the previous round's
	// graph (the empty graph before round 1), the execution's View, and the
	// number of token-learning events the round produced. In a unicast
	// execution v.LastSent holds the messages sent this round; in a
	// broadcast execution v.Choices holds the round's broadcasts. For
	// tracing. d and v are only valid for the duration of the callback.
	OnRound func(r int, d graph.Diff, v *View, learned int64)
	// Workspace, if non-nil, supplies reusable buffers (see Workspace); a
	// nil one gets a private workspace for this execution.
	Workspace *Workspace
	// Recorder, if non-nil, attaches a flight recorder: the engine resets it
	// at the start of the execution and fills its ring with per-round
	// samples (see Recorder). Like Workspace, one recorder serves a worker's
	// sequential trials.
	Recorder *Recorder
}

// Run executes the configured protocol against the adversary until every
// node holds every token, MaxRounds elapses, or a model violation occurs
// (which returns an error).
func Run(cfg Config) (*Result, error) {
	if cfg.Workspace == nil {
		cfg.Workspace = NewWorkspace()
	}
	switch {
	case cfg.Unicast != nil && cfg.Broadcast == nil:
		return runEngine(cfg, &unicastMode{factory: cfg.Unicast, ws: cfg.Workspace})
	case cfg.Broadcast != nil && cfg.Unicast == nil:
		return runEngine(cfg, &broadcastMode{factory: cfg.Broadcast, ws: cfg.Workspace})
	}
	return nil, fmt.Errorf("sim: exactly one of Config.Unicast and Config.Broadcast must be set")
}

// engineMode plugs one communication mode into the shared round loop. Every
// method may touch the engineState the mode was bound to.
type engineMode interface {
	// bind hands the mode the freshly initialized shared state; the mode
	// sets up its per-node buffers and its part of the view here.
	bind(st *engineState)
	// newProto builds node env.ID's protocol instance from its environment.
	newProto(env NodeEnv) error
	// commit runs the pre-graph half of round r.
	commit(r int) error
	// exchange runs the post-graph half of round r on graph g, doing all
	// per-message accounting; it returns the number of token-learning events.
	exchange(r int, g *graph.Graph) (learned int64, err error)
	// arriver returns node v's protocol as a TokenArriver, or nil if the
	// protocol does not support streaming token arrival.
	arriver(v graph.NodeID) TokenArriver
}

// arrival is one scheduled token injection, kept sorted by (round, token)
// so the round loop consumes the schedule with a single cursor.
type arrival struct {
	round int
	tok   token.ID
}

// buildArrivals validates an arrival schedule against the instance and
// returns the late (round >= 1) injections sorted by round then token, plus
// the last arrival round. A nil/empty schedule yields no injections: every
// token is present at round 0 and the engine behaves exactly like the
// schedule-less engine.
func buildArrivals(sched []int, k int) ([]arrival, int, error) {
	if len(sched) == 0 {
		return nil, 0, nil
	}
	if len(sched) != k {
		return nil, 0, fmt.Errorf("sim: arrival schedule has %d entries for k=%d tokens", len(sched), k)
	}
	var late []arrival
	last := 0
	for t, r := range sched {
		if r < 0 {
			return nil, 0, fmt.Errorf("sim: token %d has negative arrival round %d", t, r)
		}
		if r > last {
			last = r
		}
		if r >= 1 {
			late = append(late, arrival{round: r, tok: t})
		}
	}
	sort.Slice(late, func(i, j int) bool {
		if late[i].round != late[j].round {
			return late[i].round < late[j].round
		}
		return late[i].tok < late[j].tok
	})
	return late, last, nil
}

// engineState is the execution state shared between the round loop and the
// communication mode: per-node knowledge sets, the number of holders of
// each token, the metrics accumulator, and the View the engine hands the
// adversary each round.
type engineState struct {
	n, k int
	know []*adaptive.Set
	// holders[t] is the number of nodes whose K_v holds token t. learn
	// keeps it exact, so holders[t] == n means no delivery of t can teach
	// anyone anything.
	holders []int
	metrics Metrics
	view    View
}

// learn inserts token t into node v's K_v and reports whether v did not
// hold it before. Every insertion into a knowledge set goes through here,
// so holders stays exact.
//
//dynspread:hotpath
func (st *engineState) learn(v graph.NodeID, t token.ID) bool {
	if !st.know[v].Insert(t) {
		return false
	}
	st.holders[t]++
	return true
}

// complete costs one integer compare per node: adaptive.Full is O(1).
//
//dynspread:hotpath
func (st *engineState) complete() bool {
	for v := 0; v < st.n; v++ {
		if !st.know[v].Full() {
			return false
		}
	}
	return true
}

// runEngine executes the shared round structure for one mode. This is the
// only round loop in the package. The //dynspread:hotpath annotation covers
// the whole function; the pre-loop setup phase (which legitimately
// allocates) carries explicit allow directives so the round loop itself
// stays provably construct-free.
//
//dynspread:hotpath
func runEngine(cfg Config, mode engineMode) (*Result, error) {
	if cfg.Assign == nil {
		return nil, fmt.Errorf("sim: nil assignment")
	}
	if cfg.Adversary == nil {
		return nil, fmt.Errorf("sim: nil adversary")
	}
	adv := cfg.Adversary
	n, k := cfg.Assign.N(), cfg.Assign.K()
	if n < 2 {
		return nil, fmt.Errorf("sim: need n >= 2 nodes, got %d", n)
	}
	late, lastArrival, err := buildArrivals(cfg.ArrivalSchedule, k)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		// Late arrivals shift the whole dissemination: the cap must be
		// generous past the LAST injection, not past round 0. The sum
		// saturates like DefaultMaxRounds itself.
		maxRounds = DefaultMaxRounds(n, k)
		if lastArrival > maxRoundCap-maxRounds {
			maxRounds = maxRoundCap
		} else {
			maxRounds += lastArrival
		}
	} else if lastArrival > maxRounds {
		// An explicit cap below the last scheduled injection can never
		// complete; fail fast instead of reporting an ordinary timeout.
		return nil, fmt.Errorf("sim: max rounds %d is below the last scheduled token arrival (round %d)", maxRounds, lastArrival)
	}

	st := &engineState{n: n, k: k, know: cfg.Workspace.knowFor(n, k), holders: cleared(&cfg.Workspace.holders, k)}
	st.view = View{N: n, K: k, know: st.know}
	mode.bind(st)
	rngs := cfg.Workspace.nodeRngsFor(n, cfg.Seed)
	infoOf := cfg.Assign.Info
	for v := 0; v < n; v++ {
		//dynspread:allow hotpath -- cold: one-time per-node setup before the round loop
		initial := append([]token.ID(nil), cfg.Assign.TokensOf(v)...)
		if len(late) > 0 {
			kept := initial[:0]
			for _, t := range initial {
				if cfg.ArrivalSchedule[t] == 0 {
					//dynspread:allow hotpath -- cold: in-place filter during setup, capacity already owned
					kept = append(kept, t)
				}
			}
			initial = kept
		}
		for _, t := range initial {
			st.learn(v, t)
		}
		if err := mode.newProto(NodeEnv{
			ID:         v,
			N:          n,
			K:          k,
			NumSources: cfg.Assign.NumSources(),
			Initial:    initial,
			Know:       Knowledge{st.know[v]},
			InfoOf:     infoOf,
			Rng:        &rngs[v].rng,
		}); err != nil {
			return nil, err
		}
	}
	// Fail fast: every source receiving a late token must understand
	// injections, otherwise the run could silently never complete.
	for _, a := range late {
		src := cfg.Assign.Info(a.tok).Source
		if mode.arriver(src) == nil {
			return nil, fmt.Errorf("sim: token %d arrives at round %d but the protocol at node %d does not implement sim.TokenArriver (algorithm does not support streaming arrivals)",
				a.tok, a.round, src)
		}
	}

	var stability *graph.StabilityTracker
	if cfg.CheckStability > 0 {
		stability = graph.NewStabilityTracker(cfg.CheckStability)
	}
	if cfg.Recorder != nil {
		// Baselines are taken AFTER setup so round 1's window deltas start
		// from the post-setup state (initial insertions and workspace-reuse
		// representation switches never pollute the series).
		cfg.Recorder.start(st)
	}

	// prev is the previous round's graph and prevMut its Mutations count
	// when it was served: the adversary must leave it alone until the diff
	// below has read it.
	prev := graph.New(n)
	prevMut := prev.Mutations()
	diff := &cfg.Workspace.diff
	if st.complete() { // degenerate: k == 0 or everyone starts complete
		return &Result{Completed: true, Rounds: 0, Metrics: st.metrics}, nil
	}
	next := 0 // cursor into the sorted late-arrival schedule
	for r := 1; r <= maxRounds; r++ {
		// Inject this round's token arrivals before the pre-graph half, so
		// a token arriving at round r can be committed/sent in round r.
		injected := 0
		for next < len(late) && late[next].round == r {
			a := late[next]
			next++
			src := cfg.Assign.Info(a.tok).Source
			st.learn(src, a.tok)
			mode.arriver(src).Arrive(r, a.tok)
			injected++
		}
		if err := mode.commit(r); err != nil {
			return nil, err
		}
		st.view.Round = r
		g := adv.NextGraph(&st.view)
		if g == nil || g.N() != n {
			return nil, fmt.Errorf("sim: adversary %q returned invalid graph in round %d", adv.Name(), r)
		}
		if prev.Mutations() != prevMut {
			return nil, fmt.Errorf("sim: adversary %q changed its round %d graph before round %d was diffed against it (a served graph may be rewritten only from the call for round %d on)",
				adv.Name(), r-1, r, r+1)
		}
		if !g.Connected() {
			return nil, fmt.Errorf("sim: adversary %q returned disconnected graph in round %d", adv.Name(), r)
		}
		graph.ComputeInto(diff, prev, g)
		if stability != nil {
			stability.Observe(*diff)
			if !stability.OK() {
				v := stability.Violations()[0]
				return nil, fmt.Errorf("sim: adversary %q violated %d-edge stability: edge %v inserted round %d, gone round %d",
					adv.Name(), cfg.CheckStability, v.E, v.InsertedAt, v.RemovedAt)
			}
		}
		st.metrics.TC += int64(len(diff.Inserted))
		st.metrics.Removals += int64(len(diff.Removed))

		learned, err := mode.exchange(r, g)
		if err != nil {
			return nil, err
		}
		st.metrics.Rounds = r
		if cfg.OnRound != nil {
			cfg.OnRound(r, *diff, &st.view, learned)
		}
		if cfg.Recorder != nil {
			cfg.Recorder.observeRound(r, injected)
		}
		prev, prevMut = g, g.Mutations()
		if st.complete() {
			if cfg.Recorder != nil {
				cfg.Recorder.finish(r)
			}
			return &Result{Completed: true, Rounds: r, Metrics: st.metrics}, nil
		}
	}
	if cfg.Recorder != nil {
		cfg.Recorder.finish(maxRounds)
	}
	return &Result{Completed: false, Rounds: maxRounds, Metrics: st.metrics}, nil
}
