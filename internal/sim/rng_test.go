package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynspread/internal/graph"
)

// fixedAdv serves one graph every round without copying it.
type fixedAdv struct{ g *graph.Graph }

func (a fixedAdv) Name() string                 { return "fixed-test" }
func (a fixedAdv) NextGraph(*View) *graph.Graph { return a.g }

// eagerRngs returns the node generators as the engine once built them at
// setup: rand.New(rand.NewSource(root.Int63())) for each node in order, root
// seeded with the execution's seed.
func eagerRngs(seed int64, n int) []*rand.Rand {
	root := rand.New(rand.NewSource(seed))
	rngs := make([]*rand.Rand, n)
	for v := range rngs {
		rngs[v] = rand.New(rand.NewSource(root.Int63()))
	}
	return rngs
}

// drawLog draws through every rand.Rand method the checks cover and logs
// what it got. It ends on a Read that leaves bytes buffered in the Rand, so
// a reused generator that kept its read state would show in the first Read
// of its next execution.
func drawLog(r *rand.Rand) []uint64 {
	log := []uint64{
		uint64(r.Int63()),
		r.Uint64(),
		uint64(r.Intn(1000)),
		uint64(r.Int31n(77)),
		math.Float64bits(r.Float64()),
	}
	for _, x := range r.Perm(6) {
		log = append(log, uint64(x))
	}
	s := []int{0, 1, 2, 3, 4, 5, 6}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, x := range s {
		log = append(log, uint64(x))
	}
	for _, size := range []int{5, 2, 3} {
		buf := make([]byte, size)
		r.Read(buf)
		for _, b := range buf {
			log = append(log, uint64(b))
		}
	}
	return log
}

// drawProto draws drawLog's sequence in round 1 when draw is set.
type drawProto struct {
	silentProto
	env  NodeEnv
	draw bool
	logs [][]uint64
}

func (p *drawProto) BeginRound(r int, _ []graph.NodeID) {
	if r == 1 && p.draw {
		p.logs[p.env.ID] = drawLog(p.env.Rng)
	}
}

// rngRun is one execution of the node-randomness checks: n nodes with root
// seed seed, of which the nodes draws selects draw drawLog's sequence, in
// the factory when inFactory is set and in round 1 otherwise.
type rngRun struct {
	n         int
	seed      int64
	draws     func(v int) bool
	inFactory bool
}

// check runs r on ws and compares every drawing node's log with the eager
// stream; a node that does not draw must log nothing.
func (r rngRun) check(t *testing.T, ws *Workspace) {
	t.Helper()
	logs := make([][]uint64, r.n)
	factory := func(env NodeEnv) Protocol {
		p := &drawProto{env: env, draw: r.draws(env.ID), logs: logs}
		if p.draw && r.inFactory {
			logs[env.ID] = drawLog(env.Rng)
			p.draw = false
		}
		return p
	}
	if _, err := Run(Config{
		Assign:    singleSource(t, r.n, 1, 0),
		Unicast:   factory,
		Adversary: fixedAdv{graph.Path(r.n)},
		MaxRounds: 1,
		Seed:      r.seed,
		Workspace: ws,
	}); err != nil {
		t.Fatal(err)
	}
	eager := eagerRngs(r.seed, r.n)
	for v, got := range logs {
		if !r.draws(v) {
			continue
		}
		if want := drawLog(eager[v]); !slices.Equal(got, want) {
			t.Errorf("n=%d seed=%d node %d drew\n %v\nwant the eager stream's\n %v", r.n, r.seed, v, got, want)
		}
	}
}

func every(int) bool  { return true }
func even(v int) bool { return v%2 == 0 }
func odd(v int) bool  { return v%2 == 1 }
func nodeAt(u int) func(int) bool {
	return func(v int) bool { return v == u }
}

// TestNodeRngMatchesEagerStreams: every node's NodeEnv.Rng yields the
// stream the engine used to seed eagerly at setup, through every rand.Rand
// method, whichever nodes draw, whenever they first draw, and whatever a
// reused workspace's generators did in earlier executions.
func TestNodeRngMatchesEagerStreams(t *testing.T) {
	t.Run("nil workspace", func(t *testing.T) {
		rngRun{n: 8, seed: 3, draws: every}.check(t, nil)
		rngRun{n: 8, seed: 3, draws: nodeAt(5)}.check(t, nil)
	})
	t.Run("warm workspace", func(t *testing.T) {
		ws := NewWorkspace()
		for range 3 {
			rngRun{n: 8, seed: 3, draws: every}.check(t, ws)
		}
	})
	t.Run("larger n then smaller n", func(t *testing.T) {
		ws := NewWorkspace()
		rngRun{n: 12, seed: 4, draws: every}.check(t, ws)
		rngRun{n: 5, seed: 5, draws: every}.check(t, ws)
		rngRun{n: 20, seed: 6, draws: every}.check(t, ws)
		rngRun{n: 12, seed: 4, draws: every}.check(t, ws)
	})
	t.Run("factory draws", func(t *testing.T) {
		ws := NewWorkspace()
		rngRun{n: 8, seed: 7, draws: every, inFactory: true}.check(t, ws)
		rngRun{n: 8, seed: 7, draws: odd, inFactory: true}.check(t, ws)
		rngRun{n: 8, seed: 7, draws: every}.check(t, ws)
	})
	t.Run("draws in one execution but not the next", func(t *testing.T) {
		ws := NewWorkspace()
		rngRun{n: 8, seed: 8, draws: even}.check(t, ws)
		rngRun{n: 8, seed: 9, draws: odd}.check(t, ws)
		rngRun{n: 8, seed: 8, draws: even}.check(t, ws)
		rngRun{n: 8, seed: 10, draws: nodeAt(7)}.check(t, ws)
		rngRun{n: 8, seed: 9, draws: every}.check(t, ws)
	})
}

// TestNodeRngSeedsOnlyWhatDraws: an execution seeds the root stream only
// once some node draws, and a node's generator only once that node draws.
func TestNodeRngSeedsOnlyWhatDraws(t *testing.T) {
	ws := NewWorkspace()
	rngRun{n: 6, seed: 1, draws: func(int) bool { return false }}.check(t, ws)
	if ws.seeds.gen != nil {
		t.Fatal("an execution in which no node drew seeded the root stream")
	}
	rngRun{n: 6, seed: 1, draws: nodeAt(4)}.check(t, ws)
	for v := range ws.rngs {
		if seeded := ws.rngs[v].src.gen != nil; seeded != (v == 4) {
			t.Errorf("node %d: generator seeded = %v after only node 4 drew", v, seeded)
		}
	}
}

// TestNodeRngSeedKeepsItsMeaning: Rand.Seed on a node's generator restarts
// it on rand.NewSource(seed)'s stream, before or after its first draw.
func TestNodeRngSeedKeepsItsMeaning(t *testing.T) {
	ws := NewWorkspace()
	for _, drawFirst := range []bool{false, true} {
		rngs := ws.nodeRngsFor(3, 11)
		r := &rngs[1].rng
		if drawFirst {
			r.Int63()
			r.Read(make([]byte, 3))
		}
		r.Seed(42)
		if got, want := drawLog(r), drawLog(rand.New(rand.NewSource(42))); !slices.Equal(got, want) {
			t.Errorf("drawFirst=%v: reseeded generator drew %v, want %v", drawFirst, got, want)
		}
	}
}

// TestEngineSetupAllocsIndependentOfN: on a warm workspace, an execution
// whose protocol neither allocates nor draws allocates the same number of
// objects at n = 8 as at n = 64. Node generators are seeded only when a
// node draws and kept by the workspace, and the setup loop builds nothing
// per node.
func TestEngineSetupAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race (see raceEnabled)")
	}
	allocs := func(n int) float64 {
		cfg := Config{
			Assign:    singleSource(t, n, 4, 0),
			Unicast:   func(NodeEnv) Protocol { return silentProto{} },
			Adversary: fixedAdv{graph.Path(n)},
			MaxRounds: 1,
			Seed:      7,
			Workspace: NewWorkspace(),
		}
		run := func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the workspace and the graph's memoized state
		return testing.AllocsPerRun(10, run)
	}
	if small, large := allocs(8), allocs(64); small != large {
		t.Fatalf("engine setup allocates %.0f objects at n = 8 and %.0f at n = 64; want the same at every n", small, large)
	}
}
