package adversary

import (
	"testing"

	"dynspread/internal/registry"
)

// TestRegisteredAdversaryNames pins the name every registered adversary
// reports for one set of parameters: results (TrialResult.Adversary),
// stored records and example output carry these names verbatim.
func TestRegisteredAdversaryNames(t *testing.T) {
	want := map[string]string{
		"churn":          "churn(m=32,c=2,sigma=3)",
		"free-edge":      "free-edge(sparse)",
		"markovian":      "markovian(on=0.050,off=0.200)",
		"mobility":       "mobility(r=0.345,v=0.020)",
		"regular":        "regular(d=6)",
		"request-cutter": "request-cutter(p=0.60)",
		"rewire":         "rewire(m=32)",
		"rotating-star":  "rotating-star(p=2)",
		"static":         "static",
	}
	p := registry.Params{N: 16, K: 16, Sources: 1, Seed: 1, Sigma: 3}
	specs := registry.Adversaries()
	if len(specs) != len(want) {
		t.Errorf("%d adversaries registered, %d names pinned", len(specs), len(want))
	}
	for _, spec := range specs {
		adv, err := spec.New(p)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if got := adv.Name(); got != want[spec.Name] {
			t.Errorf("%s reports %q, want %q", spec.Name, got, want[spec.Name])
		}
	}
}
