package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// This file holds the single round engine shared by both communication
// modes. One execution is: setup (knowledge sets, per-node protocol
// instances) and then, per round,
//
//	commit → adversary graph → validate → diff → exchange → observe
//
// where commit is the pre-graph half of the round (local broadcast: nodes
// commit their broadcasts before the strongly adaptive adversary wires the
// graph; unicast: nothing), the engine itself asks the adversary for the
// graph on the shared View (the mode keeps its Choices or LastSent current),
// diff is the round's topology change E⁺_r/E⁻_r against the previous round's
// graph — computed once and read by TC accounting, the σ-stability check and
// the OnRound hooks alike — and exchange is the post-graph half (unicast:
// BeginRound/Send/validate/deliver; broadcast: deliver the committed
// broadcasts to the round's neighbors). RunUnicast and RunBroadcast are thin
// wrappers that plug their engineMode into runEngine.

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

// engineConfig is the mode-independent part of an execution configuration.
type engineConfig struct {
	assign         *token.Assignment
	maxRounds      int
	seed           int64
	checkStability int
	ws             *Workspace
	arrivals       []int
	rec            *Recorder
	adversary      Adversary
}

// engineMode plugs one communication mode into the shared round loop. Every
// method may touch the engineState the mode was bound to.
type engineMode interface {
	// check validates the mode-specific configuration (nil factory) before
	// any setup happens.
	check() error
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
	// observe reports the finished round and its topology change d to the
	// caller's OnRound hook.
	observe(r int, d graph.Diff, learned int64)
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
// communication mode: per-node knowledge sets, the metrics accumulator, and
// the View the engine hands the adversary each round.
type engineState struct {
	n, k    int
	know    []*adaptive.Set
	metrics Metrics
	view    View
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
func runEngine(cfg engineConfig, mode engineMode) (*Result, error) {
	if cfg.assign == nil {
		return nil, fmt.Errorf("sim: nil assignment")
	}
	if err := mode.check(); err != nil {
		return nil, err
	}
	if cfg.adversary == nil {
		return nil, fmt.Errorf("sim: nil adversary")
	}
	adv := cfg.adversary
	n, k := cfg.assign.N(), cfg.assign.K()
	if n < 2 {
		return nil, fmt.Errorf("sim: need n >= 2 nodes, got %d", n)
	}
	late, lastArrival, err := buildArrivals(cfg.arrivals, k)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.maxRounds
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

	st := &engineState{n: n, k: k, know: cfg.ws.knowFor(n, k)}
	st.view = View{N: n, K: k, know: st.know}
	mode.bind(st)
	rootRng := rand.New(rand.NewSource(cfg.seed))
	for v := 0; v < n; v++ {
		//dynspread:allow hotpath -- cold: one-time per-node setup before the round loop
		initial := append([]token.ID(nil), cfg.assign.TokensOf(v)...)
		if len(late) > 0 {
			kept := initial[:0]
			for _, t := range initial {
				if cfg.arrivals[t] == 0 {
					//dynspread:allow hotpath -- cold: in-place filter during setup, capacity already owned
					kept = append(kept, t)
				}
			}
			initial = kept
		}
		for _, t := range initial {
			st.know[v].Add(t)
		}
		if err := mode.newProto(NodeEnv{
			ID:         v,
			N:          n,
			K:          k,
			NumSources: cfg.assign.NumSources(),
			Initial:    initial,
			Know:       Knowledge{st.know[v]},
			InfoOf:     cfg.assign.Info,
			Rng:        rand.New(rand.NewSource(rootRng.Int63())),
		}); err != nil {
			return nil, err
		}
	}
	// Fail fast: every source receiving a late token must understand
	// injections, otherwise the run could silently never complete.
	for _, a := range late {
		src := cfg.assign.Info(a.tok).Source
		if mode.arriver(src) == nil {
			return nil, fmt.Errorf("sim: token %d arrives at round %d but the protocol at node %d does not implement sim.TokenArriver (algorithm does not support streaming arrivals)",
				a.tok, a.round, src)
		}
	}

	var stability *graph.StabilityTracker
	if cfg.checkStability > 0 {
		stability = graph.NewStabilityTracker(cfg.checkStability)
	}
	if cfg.rec != nil {
		// Baselines are taken AFTER setup so round 1's window deltas start
		// from the post-setup state (initial insertions and workspace-reuse
		// representation switches never pollute the series).
		cfg.rec.start(st)
	}

	// prev is the previous round's graph and prevMut its Mutations count
	// when it was served: the adversary must leave it alone until the diff
	// below has read it.
	prev := graph.New(n)
	prevMut := prev.Mutations()
	diff := cfg.ws.diffBuf()
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
			src := cfg.assign.Info(a.tok).Source
			st.know[src].Add(a.tok)
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
					adv.Name(), cfg.checkStability, v.E, v.InsertedAt, v.RemovedAt)
			}
		}
		st.metrics.TC += int64(len(diff.Inserted))
		st.metrics.Removals += int64(len(diff.Removed))

		learned, err := mode.exchange(r, g)
		if err != nil {
			return nil, err
		}
		st.metrics.Rounds = r
		mode.observe(r, *diff, learned)
		if cfg.rec != nil {
			cfg.rec.observeRound(r, injected)
		}
		prev, prevMut = g, g.Mutations()
		if st.complete() {
			if cfg.rec != nil {
				cfg.rec.finish(r)
			}
			return &Result{Completed: true, Rounds: r, Metrics: st.metrics}, nil
		}
	}
	if cfg.rec != nil {
		cfg.rec.finish(maxRounds)
	}
	return &Result{Completed: false, Rounds: maxRounds, Metrics: st.metrics}, nil
}
