package adversary

import (
	"fmt"
	"math"
	"math/rand"

	"dynspread/internal/graph"
)

// RotatingStar serves a star whose center advances every Period rounds —
// the classic hard instance for dissemination in dynamic networks: every
// rotation re-wires Θ(n) edges (all charged to TC), and any state tied to
// particular edges is invalidated wholesale.
type RotatingStar struct {
	n      int
	period int
	served pair
}

// NewRotatingStar returns the sequence; period <= 0 selects 1 (rotate every
// round).
func NewRotatingStar(n, period int) (*RotatingStar, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: rotating star needs n >= 2, got %d", n)
	}
	if period <= 0 {
		period = 1
	}
	return &RotatingStar{n: n, period: period}, nil
}

// Name implements Sequence.
func (s *RotatingStar) Name() string { return fmt.Sprintf("rotating-star(p=%d)", s.period) }

// Graph implements Sequence.
func (s *RotatingStar) Graph(r int) *graph.Graph {
	center := ((r - 1) / s.period) % s.n
	g := s.served.next(s.n)
	g.Reset()
	for v := 0; v < s.n; v++ {
		if v != center {
			g.AddEdge(center, v)
		}
	}
	return g
}

// MobilityOpts parameterizes the random-waypoint-style mobility model.
type MobilityOpts struct {
	// World is the side length of the square arena (default 1.0).
	World float64
	// Radius is the communication radius: nodes within it are neighbors
	// (default chosen to keep the expected degree near 6).
	Radius float64
	// Speed is the per-round displacement magnitude (default World/50).
	Speed float64
}

// Mobility is the wireless ad-hoc motivation of the paper's introduction
// made concrete: nodes drift through a square arena (reflecting at the
// walls) and the round graph is the unit-disk graph of their positions,
// patched with minimal extra edges when the disk graph is disconnected.
// The sequence is oblivious: it depends only on the seed.
type Mobility struct {
	n      int
	opts   MobilityOpts
	rng    *rand.Rand
	x, y   []float64
	vx, vy []float64
	served pair
}

// NewMobility returns the mobility sequence over n nodes.
func NewMobility(n int, opts MobilityOpts, seed int64) (*Mobility, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: mobility needs n >= 2, got %d", n)
	}
	if opts.World <= 0 {
		opts.World = 1
	}
	if opts.Radius <= 0 {
		// Expected degree ≈ n·π·r²/W² — aim for ~6.
		opts.Radius = opts.World * math.Sqrt(6/(math.Pi*float64(n)))
	}
	if opts.Speed <= 0 {
		opts.Speed = opts.World / 50
	}
	m := &Mobility{
		n:    n,
		opts: opts,
		rng:  rand.New(rand.NewSource(seed)),
		x:    make([]float64, n),
		y:    make([]float64, n),
		vx:   make([]float64, n),
		vy:   make([]float64, n),
	}
	for v := 0; v < n; v++ {
		m.x[v] = m.rng.Float64() * opts.World
		m.y[v] = m.rng.Float64() * opts.World
		ang := m.rng.Float64() * 2 * math.Pi
		m.vx[v] = math.Cos(ang) * opts.Speed
		m.vy[v] = math.Sin(ang) * opts.Speed
	}
	return m, nil
}

// Name implements Sequence.
func (m *Mobility) Name() string {
	return fmt.Sprintf("mobility(r=%.3f,v=%.3f)", m.opts.Radius, m.opts.Speed)
}

// Graph implements Sequence.
func (m *Mobility) Graph(r int) *graph.Graph {
	if r > 1 {
		m.step()
	}
	g := m.served.next(m.n)
	g.Reset()
	r2 := m.opts.Radius * m.opts.Radius
	for u := 0; u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			dx, dy := m.x[u]-m.x[v], m.y[u]-m.y[v]
			if dx*dx+dy*dy <= r2 {
				g.AddEdge(u, v)
			}
		}
	}
	// Physical proximity graphs can fragment; patch connectivity by joining
	// each leftover component through its node nearest to the main blob
	// (modeling a long-range/relay link).
	m.connectNearest(g)
	return g
}

// step advances every node, reflecting off the arena walls, with a small
// random heading perturbation.
func (m *Mobility) step() {
	w := m.opts.World
	for v := 0; v < m.n; v++ {
		// Perturb heading slightly (Gauss-Markov style mobility).
		ang := math.Atan2(m.vy[v], m.vx[v]) + (m.rng.Float64()-0.5)*0.5
		m.vx[v] = math.Cos(ang) * m.opts.Speed
		m.vy[v] = math.Sin(ang) * m.opts.Speed
		m.x[v] += m.vx[v]
		m.y[v] += m.vy[v]
		if m.x[v] < 0 {
			m.x[v], m.vx[v] = -m.x[v], -m.vx[v]
		}
		if m.x[v] > w {
			m.x[v], m.vx[v] = 2*w-m.x[v], -m.vx[v]
		}
		if m.y[v] < 0 {
			m.y[v], m.vy[v] = -m.y[v], -m.vy[v]
		}
		if m.y[v] > w {
			m.y[v], m.vy[v] = 2*w-m.y[v], -m.vy[v]
		}
	}
}

// connectNearest adds one edge per extra component, choosing the spatially
// closest cross-component pair (greedy, merging into the first component).
func (m *Mobility) connectNearest(g *graph.Graph) {
	dsu := g.DSU()
	for dsu.Components() > 1 {
		base := 0 // the smallest root
		for dsu.Find(base) != base {
			base++
		}
		bestD := math.Inf(1)
		bestU, bestV := -1, -1
		for u := 0; u < m.n; u++ {
			if dsu.Find(u) != base {
				continue
			}
			for v := 0; v < m.n; v++ {
				if dsu.Find(v) == base {
					continue
				}
				dx, dy := m.x[u]-m.x[v], m.y[u]-m.y[v]
				d := dx*dx + dy*dy
				if d < bestD {
					bestD, bestU, bestV = d, u, v
				}
			}
		}
		if bestU < 0 {
			return
		}
		g.AddEdge(bestU, bestV)
		dsu.Union(bestU, bestV)
	}
}
