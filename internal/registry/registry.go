// Package registry is the extension point through which token-dissemination
// algorithms and dynamic-network adversaries plug into the simulator.
// Implementations self-describe — name, communication mode(s), a doc string,
// and a builder — and everything above the engine (the dynspread facade, the
// cmd/ binaries, the experiment harness, and the sweep layer) resolves them
// by name. Adding a new algorithm or adversary is a one-file change: write
// the implementation and register it from an init function; no switch
// statement anywhere else needs to grow a case.
package registry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"dynspread/internal/sim"
)

// Mode is a communication-mode bitmask: the mode an algorithm runs in, or
// the set of modes an adversary can serve.
type Mode int

// The two modes of the paper's model (Section 1.3).
const (
	// Unicast is point-to-point messaging with round-start neighbor
	// knowledge.
	Unicast Mode = 1 << iota
	// Broadcast is local broadcast committed before the (strongly adaptive)
	// adversary wires the round.
	Broadcast
)

// Has reports whether m includes mode q.
func (m Mode) Has(q Mode) bool { return m&q != 0 }

// String renders the mode set.
func (m Mode) String() string {
	switch {
	case m.Has(Unicast) && m.Has(Broadcast):
		return "unicast|broadcast"
	case m.Has(Unicast):
		return "unicast"
	case m.Has(Broadcast):
		return "broadcast"
	default:
		return "none"
	}
}

// ParseMode inverts Mode.String.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "unicast":
		return Unicast, nil
	case "broadcast":
		return Broadcast, nil
	case "unicast|broadcast":
		return Unicast | Broadcast, nil
	case "none":
		return 0, nil
	}
	return 0, fmt.Errorf("registry: unknown mode %q", s)
}

// MarshalJSON serializes the mode as its String form, so catalog listings
// (spreadd's /v1/catalog) carry "unicast" rather than a bitmask.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(m.String())), nil
}

// UnmarshalJSON inverts MarshalJSON.
func (m *Mode) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("registry: mode must be a JSON string: %w", err)
	}
	parsed, err := ParseMode(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Params carries the per-run knobs a builder may consult. Builders must
// treat zero values as "use the documented default".
type Params struct {
	// N, K, Sources describe the instance (nodes, tokens, source count).
	N, K, Sources int
	// Seed derives every random choice; builders add their own fixed
	// offsets so distinct components never share a stream.
	Seed int64
	// Sigma is the edge-stability parameter (churn adversary; default 3).
	Sigma int
	// Options carries algorithm-specific options (for example
	// core.ObliviousOpts for the "oblivious" algorithm). Builders that use
	// it document the concrete type and must tolerate nil.
	Options any
	// AdvOptions carries adversary-specific options (for example
	// adversary.RequestCutterOpts), under the same contract as Options.
	AdvOptions any
}

// Algorithm describes one registered token-forwarding algorithm.
type Algorithm struct {
	// Name is the stable lookup key (kebab-case, e.g. "single-source").
	Name string
	// Doc is a one-line description shown by CLI listings.
	Doc string
	// Mode is the single communication mode the algorithm runs in.
	Mode Mode
	// Unicast builds the protocol factory; set iff Mode == Unicast.
	Unicast func(Params) (sim.Factory, error)
	// Broadcast builds the broadcast factory; set iff Mode == Broadcast.
	Broadcast func(Params) (sim.BroadcastFactory, error)
}

// Adversary describes one registered dynamic-network adversary.
type Adversary struct {
	// Name is the stable lookup key (kebab-case, e.g. "free-edge").
	Name string
	// Doc is a one-line description shown by CLI listings.
	Doc string
	// Modes is the set of modes the adversary can serve. Oblivious
	// sequences serve both; strongly adaptive adversaries are usually tied
	// to one.
	Modes Mode
	// New builds a fresh adversary for an execution in any of Modes.
	// Adversaries are stateful: every execution needs its own instance.
	New func(Params) (sim.Adversary, error)
}

var (
	mu          sync.RWMutex
	algorithms  = map[string]Algorithm{}
	adversaries = map[string]Adversary{}
)

// RegisterAlgorithm adds spec to the registry. It panics on an empty or
// duplicate name or on a builder/mode mismatch — registration runs from
// init functions, where a bad spec is a programming error.
func RegisterAlgorithm(spec Algorithm) {
	if spec.Name == "" {
		panic("registry: algorithm with empty name")
	}
	if spec.Mode != Unicast && spec.Mode != Broadcast {
		panic(fmt.Sprintf("registry: algorithm %q: mode must be exactly Unicast or Broadcast, got %v", spec.Name, spec.Mode))
	}
	if (spec.Mode == Unicast) != (spec.Unicast != nil) || (spec.Mode == Broadcast) != (spec.Broadcast != nil) {
		panic(fmt.Sprintf("registry: algorithm %q: mode %v does not match its builders", spec.Name, spec.Mode))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := algorithms[spec.Name]; dup {
		panic(fmt.Sprintf("registry: algorithm %q registered twice", spec.Name))
	}
	algorithms[spec.Name] = spec
}

// RegisterAdversary adds spec to the registry, panicking on invalid specs
// like RegisterAlgorithm.
func RegisterAdversary(spec Adversary) {
	if spec.Name == "" {
		panic("registry: adversary with empty name")
	}
	if spec.Modes == 0 {
		panic(fmt.Sprintf("registry: adversary %q: no modes declared", spec.Name))
	}
	if spec.New == nil {
		panic(fmt.Sprintf("registry: adversary %q: nil builder", spec.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := adversaries[spec.Name]; dup {
		panic(fmt.Sprintf("registry: adversary %q registered twice", spec.Name))
	}
	adversaries[spec.Name] = spec
}

// LookupAlgorithm resolves an algorithm by name.
func LookupAlgorithm(name string) (Algorithm, error) {
	mu.RLock()
	defer mu.RUnlock()
	spec, ok := algorithms[name]
	if !ok {
		return Algorithm{}, fmt.Errorf("registry: unknown algorithm %q (have %v)", name, namesLocked(algorithms))
	}
	return spec, nil
}

// LookupAdversary resolves an adversary by name.
func LookupAdversary(name string) (Adversary, error) {
	mu.RLock()
	defer mu.RUnlock()
	spec, ok := adversaries[name]
	if !ok {
		return Adversary{}, fmt.Errorf("registry: unknown adversary %q (have %v)", name, namesLocked(adversaries))
	}
	return spec, nil
}

// Algorithms returns every registered algorithm sorted by name.
func Algorithms() []Algorithm {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Algorithm, 0, len(algorithms))
	for _, spec := range algorithms {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Adversaries returns every registered adversary sorted by name.
func Adversaries() []Adversary {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Adversary, 0, len(adversaries))
	for _, spec := range adversaries {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func namesLocked[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
