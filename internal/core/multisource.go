package core

import (
	"math/bits"

	"dynspread/internal/bitset"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// OwnedToken labels one token a node owns as a (phase-2 or original) source:
// the owner's Index-th token out of Count.
type OwnedToken struct {
	Global token.ID
	Index  int
	Count  int
}

// MultiSource implements the Multi-Source-Unicast algorithm of Section
// 3.2.1. Tokens start at s source nodes; every node tracks, per source x,
// the set R_v(x) of nodes it has informed about its own completeness w.r.t.
// x, the set S_v(x) of nodes that announced completeness w.r.t. x to it, and
// the set I_v of sources it is complete with respect to. Each round a node
// (1) announces, per neighbor, completeness w.r.t. the minimum applicable
// source, (2) answers the previous round's token request, and (3) sends
// requests for the minimum-ID source x ∉ I_v with S_v(x) ≠ ∅, using
// Algorithm 1's new > idle > contributive edge priority. All three tasks
// may share a single message per edge (constant tokens + O(log n) bits).
// With one source this is Algorithm 1 (Single-Source-Unicast) itself, and
// the single-source registry entry runs it that way.
//
// All state is dense, and steady-state rounds allocate nothing. A source's
// record (k_x, its token slots, and R_v(x) and S_v(x) as n-bit sets) is
// indexed by source ID and carved from per-node slabs, sized for s sources
// and k tokens, when the source is first learned; announcement bookkeeping
// is therefore 2·s·n bits per node. I_v and the set of sources with
// S_v(x) ≠ ∅ are n-bit sets, so the request target is one FirstNotInFrom.
// Requests to answer and requests in flight sit in NodeID-indexed slots
// stamped with the round they are due, so nothing is cleared between
// rounds, and Send fills one message slot per neighbor in a reused buffer.
type MultiSource struct {
	env  sim.NodeEnv
	opts SingleSourceOpts

	src          []*msSource // by source ID; nil until the source is learned
	iv           bitset.Set  // I_v: sources we are complete w.r.t.
	heardSources bitset.Set  // sources x with S_v(x) ≠ ∅
	// ivSize is |I_v|. toldAll[u] == ivSize records that u ∈ R_v(x) for
	// every x ∈ I_v; both sets only grow, so that holds until I_v does.
	ivSize  int
	toldAll []int

	// answers[u] is u's token request, due to be answered in round due.
	// requests[u] is our request to u; its token is in flight in round due
	// if the edge to u survived.
	answers  []dueRequest
	requests []dueRequest

	edges *edgeTracker
	// arriveRound[i] == r marks index i of the round-r request target as
	// already arriving (requested last round over a surviving edge).
	arriveRound []int
	// cands is the request-candidate scratch: positions in the neighbor
	// list (which are also Send's slot indices), capacity n so it never
	// grows. out is the reused Send buffer (the engine copies it before
	// the next Send; see the Protocol buffer contract).
	cands []int
	out   []sim.Message

	// Storage not yet handed out (see take) for source records, their sets
	// and their token slots.
	recSlab  []msSource
	wordSlab []uint64
	idSlab   []token.ID
}

// msSource is a node's state for one source x.
type msSource struct {
	count    int        // k_x; 0 until learned
	held     int        // number of x's tokens held
	globals  []token.ID // globals[i] is x's i-th token (1-based); token.None = not held
	informed bitset.Set // R_v(x)
	heard    bitset.Set // S_v(x)
	// scanFrom is 1 plus the number of leading held slots: every index
	// below it is held. Slots only fill, so sendRequests's scan for missing
	// indices starts here.
	scanFrom int
}

// dueRequest is a request that is live only in round due.
type dueRequest struct {
	due int
	req sim.RequestPayload
}

// SingleSourceOpts tunes Algorithm 1 for ablation experiments.
type SingleSourceOpts struct {
	// RandomPriority replaces the new > idle > contributive request-edge
	// priority with a uniformly random edge order — the E9 ablation that
	// disables the futile-round machinery of Lemmas 3.2/3.3.
	RandomPriority bool
	// Stats, when non-nil, receives cross-node instrumentation (shared by
	// every node of the run; the engine is single-threaded). Used by the
	// Lemma 3.3 futile-round experiment.
	Stats *SingleSourceStats
}

// SingleSourceStats aggregates instrumentation across all nodes of one run.
type SingleSourceStats struct {
	// ContribRequestRounds marks rounds in which some node assigned a
	// request to a contributive edge (the negation of the first futile-round
	// condition of Definition 3.3).
	ContribRequestRounds map[int]bool
	// RequestsByClass counts assigned requests per edge class
	// (new, idle, contributive).
	RequestsByClass [3]int64
	// LastRequestRound is the last round any node sent a token request
	// (Lemma 3.3 counts futile rounds up to this point).
	LastRequestRound int
}

// NewSingleSourceStats returns an empty stats collector.
func NewSingleSourceStats() *SingleSourceStats {
	return &SingleSourceStats{ContribRequestRounds: make(map[int]bool)}
}

// NewMultiSource returns the Multi-Source-Unicast factory for tokens
// distributed per the engine's assignment (each source owns its initial
// tokens).
func NewMultiSource() sim.Factory { return NewMultiSourceWithOpts(SingleSourceOpts{}) }

// NewMultiSourceWithOpts returns the Multi-Source-Unicast factory with
// Algorithm 1's ablation and instrumentation hooks.
func NewMultiSourceWithOpts(opts SingleSourceOpts) sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		owned := make([]OwnedToken, 0, len(env.Initial))
		for _, t := range env.Initial {
			info := env.InfoOf(t)
			owned = append(owned, OwnedToken{Global: t, Index: info.Index, Count: 0})
		}
		for i := range owned {
			owned[i].Count = len(owned)
		}
		p := NewMultiSourceWith(env, owned)
		p.opts = opts
		return p
	}
}

// NewMultiSourceWith builds a MultiSource node whose owned source tokens are
// given explicitly — this is how Algorithm 2's phase 2 runs MultiSource with
// the centers as sources and freshly labeled token sets.
func NewMultiSourceWith(env sim.NodeEnv, owned []OwnedToken) *MultiSource {
	n, s := env.N, env.NumSources
	p := &MultiSource{
		env:          env,
		src:          make([]*msSource, n),
		iv:           *bitset.New(n),
		heardSources: *bitset.New(n),
		answers:      make([]dueRequest, n),
		requests:     make([]dueRequest, n),
		toldAll:      make([]int, n),
		edges:        newEdgeTracker(n),
		arriveRound:  make([]int, env.K+1),
		cands:        make([]int, 0, n),
		recSlab:      make([]msSource, s),
		wordSlab:     make([]uint64, 2*s*bitset.WordsFor(n)),
		idSlab:       make([]token.ID, env.K+s),
	}
	if len(owned) > 0 {
		me := env.ID
		src := p.ensureSource(me, len(owned))
		for _, o := range owned {
			if o.Index >= 1 && o.Index <= src.count && src.globals[o.Index] == token.None {
				src.globals[o.Index] = o.Global
				src.held++
			}
		}
		// A source is complete with respect to itself at time 0.
		p.markComplete(me)
	}
	return p
}

// take returns the next n elements of *slab, or fresh storage once the
// slab runs short (more sources or tokens than the slabs were sized for).
func take[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		return make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// ensureSource returns x's record, creating it (with R_v(x) and S_v(x))
// when x is first learned and sizing its token slots once k_x is known.
// Both happen at most once per source, and take from the slabs.
//
//dynspread:hotpath
func (p *MultiSource) ensureSource(x graph.NodeID, count int) *msSource {
	s := p.src[x]
	if s == nil {
		n := p.env.N
		w := bitset.WordsFor(n)
		words := take(&p.wordSlab, 2*w)
		s = &take(&p.recSlab, 1)[0]
		s.informed = bitset.Wrap(n, words[:w:w])
		s.heard = bitset.Wrap(n, words[w:])
		p.src[x] = s
	}
	if s.count == 0 && count > 0 {
		s.count = count
		s.globals = take(&p.idSlab, count+1)
		for i := range s.globals {
			s.globals[i] = token.None
		}
		s.scanFrom = 1 // slot 0 is unused
		if len(p.arriveRound) <= count {
			p.arriveRound = make([]int, count+1)
		}
	}
	return s
}

// markComplete adds x to I_v.
//
//dynspread:hotpath
func (p *MultiSource) markComplete(x graph.NodeID) {
	if p.iv.Insert(x) {
		p.ivSize++
	}
}

// BeginRound implements sim.Protocol. Last round's requests need no
// promotion: a request is in flight exactly when its due round is this
// round and its edge survived, and only current neighbors are consulted.
//
//dynspread:hotpath
func (p *MultiSource) BeginRound(r int, neighbors []graph.NodeID) {
	p.edges.beginRound(r, neighbors)
}

// Send implements sim.Protocol: the three parallel tasks of Section 3.2.1,
// merged into at most one message per neighbor.
//
//dynspread:hotpath
func (p *MultiSource) Send(r int) []sim.Message {
	nbrs := p.edges.nbrs
	if cap(p.out) < len(nbrs) {
		// Grow with headroom: under a dynamic adversary the degree creeps up.
		p.out = make([]sim.Message, 0, 2*len(nbrs))
	}
	out := p.out[:len(nbrs)]
	for i, u := range nbrs {
		out[i] = sim.Message{From: p.env.ID, To: u}
	}

	// Task 1: per neighbor, announce completeness w.r.t. the minimum source
	// x ∈ I_v with u ∉ R_v(x).
	for i, u := range nbrs {
		if x := p.minUnannounced(u); x >= 0 {
			s := p.src[x]
			s.informed.Add(u)
			out[i].SetCompleteness(sim.CompletenessAnn{Source: x, Count: s.count})
		}
	}

	// Task 2: answer the previous round's requests (only for sources we are
	// complete with respect to, which is the only way u could have asked).
	// Requests from nodes no longer adjacent lapse with their due round.
	for i, u := range nbrs {
		a := p.answers[u]
		if a.due != r || !p.iv.Contains(a.req.Owner) {
			continue
		}
		s := p.src[a.req.Owner]
		if a.req.Index < 1 || a.req.Index > s.count || s.globals[a.req.Index] == token.None {
			continue
		}
		out[i].SetToken(sim.TokenPayload{
			ID: s.globals[a.req.Index], Owner: a.req.Owner, Index: a.req.Index, Count: s.count,
		})
	}

	// Task 3: requests for the minimum-ID incomplete source with a known
	// complete node, using Algorithm 1's edge priority.
	p.sendRequests(r, out)

	// Keep the non-empty slots, in neighbor order.
	j := 0
	for i := range out {
		if !out[i].Empty() {
			out[j] = out[i]
			j++
		}
	}
	return out[:j]
}

// minUnannounced returns the minimum source x ∈ I_v with u ∉ R_v(x), or -1.
//
//dynspread:hotpath
func (p *MultiSource) minUnannounced(u graph.NodeID) graph.NodeID {
	if p.toldAll[u] == p.ivSize {
		return -1
	}
	for wi, w := range p.iv.Words() {
		for ; w != 0; w &= w - 1 {
			x := wi*64 + bits.TrailingZeros64(w)
			if !p.src[x].informed.Contains(u) {
				return x
			}
		}
	}
	p.toldAll[u] = p.ivSize
	return -1
}

// sendRequests runs Algorithm 1's request assignment against the target
// source — the minimum x ∉ I_v with S_v(x) ≠ ∅ — writing each request into
// its neighbor's slot of out.
//
//dynspread:hotpath
func (p *MultiSource) sendRequests(r int, out []sim.Message) {
	x := p.heardSources.FirstNotInFrom(&p.iv, 0)
	if x < 0 || p.src[x].count == 0 {
		return
	}
	s := p.src[x]
	for s.scanFrom <= s.count && s.globals[s.scanFrom] != token.None {
		s.scanFrom++
	}
	nbrs := p.edges.nbrs
	for _, u := range nbrs {
		if q := p.requests[u]; q.due == r && q.req.Owner == x {
			p.arriveRound[q.req.Index] = r
		}
	}
	// Candidate edges: neighbors known complete w.r.t. x, new before idle
	// before contributive, each class in neighbor order.
	cands := p.cands[:0]
	for c := edgeNew; c <= edgeContributive; c++ {
		for i, u := range nbrs {
			if s.heard.Contains(u) && p.edges.class(u, p.requests[u].due == r) == c {
				//dynspread:allow hotpath -- never grows: cands has capacity n and holds at most one entry per neighbor
				cands = append(cands, i)
			}
		}
	}
	p.cands = cands
	if p.opts.RandomPriority {
		p.shuffleCands(cands)
	}
	// The j-th candidate asks for the j-th missing index: neither held nor
	// already arriving.
	idx := s.scanFrom
	for _, i := range cands {
		for idx <= s.count && (s.globals[idx] != token.None || p.arriveRound[idx] == r) {
			idx++
		}
		if idx > s.count {
			return
		}
		req := sim.RequestPayload{Owner: x, Index: idx}
		idx++
		if p.opts.Stats != nil {
			p.countRequest(r, nbrs[i])
		}
		p.requests[nbrs[i]] = dueRequest{due: r + 1, req: req}
		out[i].SetRequest(req)
	}
}

// shuffleCands is E9's ablation: a uniformly random candidate order in
// place of new > idle > contributive. A round in which every missing index
// is already arriving draws too: harmless, since those indices all arrive
// this round and the node never draws again.
func (p *MultiSource) shuffleCands(cands []int) {
	p.env.Rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
}

// countRequest adds a request about to be assigned to u to E11's stats,
// by the class u's edge has before its request slot is overwritten.
func (p *MultiSource) countRequest(r int, u graph.NodeID) {
	st := p.opts.Stats
	c := p.edges.class(u, p.requests[u].due == r)
	st.RequestsByClass[c-1]++
	if c == edgeContributive {
		st.ContribRequestRounds[r] = true
	}
	st.LastRequestRound = max(st.LastRequestRound, r)
}

// Deliver implements sim.Protocol.
//
//dynspread:hotpath
func (p *MultiSource) Deliver(r int, in []sim.Message) {
	// Inboxes arrive already sorted by sender — the engine's (To, From)
	// delivery-order invariant, pinned by TestDeliveryOrderInvariant in sim.
	for i := range in {
		m := &in[i]
		if m.Has(sim.KindCompleteness) {
			x := m.Completeness.Source
			p.ensureSource(x, m.Completeness.Count).heard.Add(m.From)
			p.heardSources.Add(x)
		}
		if m.Has(sim.KindRequest) {
			p.answers[m.From] = dueRequest{due: r + 1, req: m.Request}
		}
		if m.Has(sim.KindToken) {
			p.acceptToken(m.From, m.Token)
		}
	}
}

// acceptToken records a received token and updates per-source completeness.
//
//dynspread:hotpath
func (p *MultiSource) acceptToken(from graph.NodeID, t sim.TokenPayload) {
	x := t.Owner
	s := p.ensureSource(x, t.Count)
	if s.count == 0 || t.Index < 1 || t.Index > s.count || s.globals[t.Index] != token.None {
		return
	}
	s.globals[t.Index] = t.ID
	s.held++
	p.edges.markContributive(from)
	if s.held == s.count {
		p.markComplete(x)
	}
}
