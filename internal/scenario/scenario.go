// Package scenario is the workload registry of the simulator — the third
// registry kind next to algorithms and adversaries. A scenario bundles
// everything that describes a workload except the algorithm under test: the
// instance shape (n, k, source count), the dynamics (a registered adversary
// by name), and the token arrival schedule (burst, uniform rate,
// Poisson-like, or explicit — nil means the classic all-tokens-at-round-0
// instance). Scenarios are registered by name from init functions, resolved
// by the sweep layer's trial runner, selected through the dynspread facade
// (Config.Scenario) and the spreadsim -scenario flag, and crossed against
// algorithms and seeds by sweep.Grid's Scenarios axis — so a new workload is
// a one-file change just like a new algorithm.
package scenario

import (
	"fmt"
	"sort"
	"sync"
)

// Spec describes one registered workload.
type Spec struct {
	// Name is the stable lookup key (kebab-case, e.g. "token-stream").
	Name string
	// Doc is a one-line description shown by CLI listings.
	Doc string
	// N and K are the node and token counts; Sources is the number of
	// source nodes (0 defaults to 1).
	N, K, Sources int
	// DefaultAlgorithm is the registry name of the algorithm the scenario is
	// normally run with; trial runners use it when no algorithm is given.
	DefaultAlgorithm string
	// Adversary names the registered dynamics of the workload (required).
	Adversary string
	// Schedule streams the token supply; nil injects every token at round 0.
	Schedule Schedule
	// Sigma is the edge-stability parameter for churn-style dynamics
	// (0 = adversary default).
	Sigma int
	// MaxRounds caps executions of the scenario (0 = engine default).
	MaxRounds int
}

// NumSources returns the effective source count (Sources defaulted to 1).
func (s Spec) NumSources() int {
	if s.Sources <= 0 {
		return 1
	}
	return s.Sources
}

// ScheduleName renders the arrival schedule for listings.
func (s Spec) ScheduleName() string {
	if s.Schedule == nil {
		return "all@0"
	}
	return s.Schedule.String()
}

// ArrivalRounds materializes the scenario's arrival schedule for one seed:
// the engine-level per-token injection rounds, or nil for the classic
// instance (which the engine reproduces bit for bit).
func (s Spec) ArrivalRounds(seed int64) ([]int, error) {
	if s.Schedule == nil {
		return nil, nil
	}
	rounds, err := s.Schedule.Rounds(s.K, seed)
	if err != nil {
		return nil, err
	}
	if len(rounds) != s.K {
		return nil, fmt.Errorf("scenario %q: schedule produced %d rounds for k=%d", s.Name, len(rounds), s.K)
	}
	for t, r := range rounds {
		if r < 0 {
			return nil, fmt.Errorf("scenario %q: schedule gave token %d negative round %d", s.Name, t, r)
		}
	}
	return rounds, nil
}

// Info is the JSON-serializable catalog entry for a scenario, as served by
// spreadd's /v1/catalog. It carries the schedule's listing string instead
// of the live Schedule value, so it marshals cleanly and stays stable
// across seeds.
type Info struct {
	Name             string `json:"name"`
	Doc              string `json:"doc"`
	N                int    `json:"n"`
	K                int    `json:"k"`
	Sources          int    `json:"sources"`
	DefaultAlgorithm string `json:"default_algorithm"`
	Dynamics         string `json:"dynamics"`
	Schedule         string `json:"schedule"`
	Sigma            int    `json:"sigma,omitempty"`
	MaxRounds        int    `json:"max_rounds,omitempty"`
}

// Info derives the spec's catalog entry.
func (s Spec) Info() Info {
	return Info{
		Name:             s.Name,
		Doc:              s.Doc,
		N:                s.N,
		K:                s.K,
		Sources:          s.NumSources(),
		DefaultAlgorithm: s.DefaultAlgorithm,
		Dynamics:         s.Adversary,
		Schedule:         s.ScheduleName(),
		Sigma:            s.Sigma,
		MaxRounds:        s.MaxRounds,
	}
}

// validate reports whether the spec is registrable.
func (s Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario with empty name")
	}
	if s.N < 2 {
		return fmt.Errorf("scenario %q: need N >= 2, got %d", s.Name, s.N)
	}
	if s.K < 1 {
		return fmt.Errorf("scenario %q: need K >= 1, got %d", s.Name, s.K)
	}
	if src := s.NumSources(); src > s.N || s.K < src {
		return fmt.Errorf("scenario %q: sources=%d out of range for n=%d, k=%d", s.Name, src, s.N, s.K)
	}
	if s.Adversary == "" {
		return fmt.Errorf("scenario %q: no adversary", s.Name)
	}
	if s.Schedule != nil {
		// A probe materialization catches shape errors at registration
		// instead of in the middle of a sweep.
		if _, err := s.ArrivalRounds(0); err != nil {
			return err
		}
	}
	return nil
}

var (
	mu        sync.RWMutex
	scenarios = map[string]Spec{}
)

// RegisterScenario adds spec to the registry. It panics on an invalid or
// duplicate spec — registration runs from init functions, where a bad spec
// is a programming error (matching the algorithm/adversary registries).
func RegisterScenario(spec Spec) {
	if err := spec.validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := scenarios[spec.Name]; dup {
		panic(fmt.Sprintf("scenario: %q registered twice", spec.Name))
	}
	scenarios[spec.Name] = spec
}

// LookupScenario resolves a scenario by name.
func LookupScenario(name string) (Spec, error) {
	mu.RLock()
	defer mu.RUnlock()
	spec, ok := scenarios[name]
	if !ok {
		names := make([]string, 0, len(scenarios))
		for n := range scenarios {
			names = append(names, n)
		}
		sort.Strings(names)
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, names)
	}
	return spec, nil
}

// Scenarios returns every registered scenario sorted by name.
func Scenarios() []Spec {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Spec, 0, len(scenarios))
	for _, spec := range scenarios {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
