package sim

import "math/rand"

// Node randomness. Node v draws from rand.New(rand.NewSource(s_v)), where
// s_0, s_1, … are the successive Int63 values of rand.NewSource(Seed), taken
// in node order. Seeding one generator costs about 15 µs and 5.4 KB (go1.24,
// 2-vCPU x86-64 host), and most protocols never draw, so nothing is seeded
// before a node first draws: the first draw of any node derives all n seeds
// from the root stream, and each node's first draw seeds its own generator.
// A stream that is drawn is therefore bit-identical to one seeded eagerly
// at setup, whichever node draws first.

// nodeSeeds is one execution's node seeds, derived on first use.
type nodeSeeds struct {
	root    int64
	n       int
	derived bool
	seeds   []int64
	// gen is the root generator, kept with seeds for the next execution.
	gen rand.Source
}

// reset readies s for an execution of n nodes with root seed root; nothing
// is derived until a node asks for its seed.
func (s *nodeSeeds) reset(root int64, n int) {
	s.root, s.n, s.derived = root, n, false
}

// of returns node v's seed, deriving all n on the first call.
func (s *nodeSeeds) of(v int) int64 {
	if !s.derived {
		if s.gen == nil {
			s.gen = rand.NewSource(s.root)
		} else {
			s.gen.Seed(s.root)
		}
		if cap(s.seeds) < s.n {
			s.seeds = make([]int64, s.n)
		}
		s.seeds = s.seeds[:s.n]
		for i := range s.seeds {
			s.seeds[i] = s.gen.Int63()
		}
		s.derived = true
	}
	return s.seeds[v]
}

// nodeSource is the rand.Source64 under node v's NodeEnv.Rng. It seeds its
// generator on the first Int63 or Uint64: with node v's seed, or, after an
// explicit Seed, with that seed, so Rand.Seed keeps its meaning.
type nodeSource struct {
	seeds *nodeSeeds // nil after an explicit Seed
	v     int
	seed  int64 // the explicit Seed value
	live  bool  // gen is seeded for this execution
	// gen is the generator; a Workspace keeps it for the node's next
	// execution, which reseeds it rather than allocating another.
	gen rand.Source64
}

// Seed implements rand.Source. Like everything else here it defers the
// work to the first draw.
func (s *nodeSource) Seed(seed int64) {
	s.seeds, s.seed, s.live = nil, seed, false
}

// Int63 implements rand.Source.
//
//dynspread:hotpath
func (s *nodeSource) Int63() int64 {
	if !s.live {
		s.start()
	}
	return s.gen.Int63()
}

// Uint64 implements rand.Source64.
//
//dynspread:hotpath
func (s *nodeSource) Uint64() uint64 {
	if !s.live {
		s.start()
	}
	return s.gen.Uint64()
}

// start seeds gen for the first draw of the execution.
func (s *nodeSource) start() {
	seed := s.seed
	if s.seeds != nil {
		seed = s.seeds.of(s.v)
	}
	if s.gen == nil {
		s.gen = rand.NewSource(seed).(rand.Source64)
	} else {
		s.gen.Seed(seed)
	}
	s.live = true
}

// nodeRng is one node's NodeEnv.Rng and the source under it.
type nodeRng struct {
	rng rand.Rand
	src nodeSource
}

// reset readies node v's generator for a new execution: a Rand with a clean
// read state over an unseeded source that keeps only its generator. The
// Rand is rebuilt rather than reset through Rand.Seed because the slot may
// have moved since it was built (the Workspace grows its slot array by
// copying), and the Rand must point at this slot's source.
func (r *nodeRng) reset(seeds *nodeSeeds, v int) {
	r.src = nodeSource{seeds: seeds, v: v, gen: r.src.gen}
	r.rng = *rand.New(&r.src)
}
