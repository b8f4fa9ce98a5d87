package dynspread_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dynspread"
	"dynspread/internal/trace"
)

func TestGridSpecExpansionMatchesValidation(t *testing.T) {
	g := dynspread.GridSpec{
		Ns:          []int{8, 10},
		Ks:          []int{4},
		Algorithms:  []string{"single-source"},
		Adversaries: []string{"static", "churn"},
		Seeds:       []int64{1, 2},
	}
	specs, err := g.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("got %d specs, want 8", len(specs))
	}
	if specs[0].Sources != 1 {
		t.Fatalf("specs not normalized: %+v", specs[0])
	}
	// A partially specified classic family is rejected, matching sweep.
	if _, err := (dynspread.GridSpec{Ns: []int{8}}).Trials(); err == nil || !strings.Contains(err.Error(), "Ks") {
		t.Fatalf("partial grid accepted: %v", err)
	}
}

func TestRunRequestSpecsFlattening(t *testing.T) {
	req := dynspread.RunRequest{
		Trials: []dynspread.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 7}},
		Grid: &dynspread.GridSpec{
			Scenarios: []string{"token-stream"},
			Seeds:     []int64{1, 2},
		},
	}
	specs, err := req.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Seed != 7 || specs[1].Scenario != "token-stream" {
		t.Fatalf("flattening wrong: %+v", specs)
	}
	if _, err := (dynspread.RunRequest{}).Specs(); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestTrialSpecValidateRejectsAbsurdShapes(t *testing.T) {
	ok := dynspread.TrialSpec{N: 8, K: 4, Algorithm: "single-source", Adversary: "static"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("sane spec rejected: %v", err)
	}
	if err := (dynspread.TrialSpec{Scenario: "token-stream"}).Validate(); err != nil {
		t.Fatalf("scenario spec rejected: %v", err)
	}
	bad := []struct {
		name string
		spec dynspread.TrialSpec
		want string
	}{
		{"negative n", dynspread.TrialSpec{N: -1, K: 4}, "n must not be negative"},
		{"negative k", dynspread.TrialSpec{N: 4, K: -2}, "k must not be negative"},
		{"huge n", dynspread.TrialSpec{N: dynspread.MaxWireN + 1, K: 4}, "exceeds the wire limit"},
		{"huge k", dynspread.TrialSpec{N: 4, K: dynspread.MaxWireK + 1}, "exceeds the wire limit"},
		{"negative max rounds", dynspread.TrialSpec{N: 4, K: 4, MaxRounds: -7}, "max_rounds"},
		{"huge max rounds", dynspread.TrialSpec{N: 4, K: 4, MaxRounds: dynspread.MaxWireRounds + 1}, "max_rounds"},
		{"negative sigma", dynspread.TrialSpec{N: 4, K: 4, Sigma: -1}, "sigma"},
		{"negative arrival", dynspread.TrialSpec{N: 4, K: 2, Arrivals: []int{0, -3}}, "arrivals[1]"},
		{"huge sources", dynspread.TrialSpec{N: 4, K: 4, Sources: dynspread.MaxWireN + 1}, "sources"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not mention %q", err, c.want)
			}
		})
	}

	// The overflow shape that used to wrap sim.DefaultMaxRounds around is
	// rejected at the wire boundary with a clear error, both on request
	// flattening and on direct execution.
	absurd := dynspread.TrialSpec{N: dynspread.MaxWireN + 1, K: dynspread.MaxWireK + 1}
	if _, err := (dynspread.RunRequest{Trials: []dynspread.TrialSpec{absurd}}).Specs(); err == nil {
		t.Fatal("RunRequest.Specs accepted an absurd trial")
	}
	if _, err := dynspread.RunSpecs(context.Background(), []dynspread.TrialSpec{absurd}, 1, nil); err == nil {
		t.Fatal("RunSpecs accepted an absurd trial")
	}
	// Grid-expanded specs go through the same guard at request time.
	grid := dynspread.RunRequest{Grid: &dynspread.GridSpec{
		Ns: []int{dynspread.MaxWireN + 1}, Ks: []int{4},
		Algorithms: []string{"topkis"}, Adversaries: []string{"static"},
		Seeds: []int64{1},
	}}
	if _, err := grid.Specs(); err == nil || !strings.Contains(err.Error(), "wire limit") {
		t.Fatalf("absurd grid not rejected at request time: %v", err)
	}

	// A grid whose axis VALUES are all legal but whose cross-product is
	// astronomical must be rejected before expansion (a small request body
	// must not be able to exhaust server memory).
	axis := make([]int, 4096)
	for i := range axis {
		axis[i] = i + 2
	}
	huge := dynspread.GridSpec{
		Ns: axis, Ks: axis, // 16M+ combinations before the other axes
		Algorithms: []string{"topkis"}, Adversaries: []string{"static"},
		Seeds: []int64{1},
	}
	if _, err := huge.Trials(); err == nil || !strings.Contains(err.Error(), "trials") {
		t.Fatalf("unbounded grid cardinality not rejected: %v", err)
	}
}

func TestRunSpecsMatchesRunAndStreamsProgress(t *testing.T) {
	spec := dynspread.TrialSpec{N: 12, K: 8, Algorithm: "single-source", Adversary: "churn", Seed: 3}
	var (
		mu    sync.Mutex
		calls int
	)
	results, err := dynspread.RunSpecs(context.Background(), []dynspread.TrialSpec{spec, spec}, 2,
		func(i int, r dynspread.TrialResult) {
			mu.Lock()
			calls++
			mu.Unlock()
			if !r.Completed {
				t.Errorf("trial %d incomplete", i)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || len(results) != 2 {
		t.Fatalf("calls=%d results=%d, want 2 and 2", calls, len(results))
	}
	rep, err := dynspread.Run(dynspread.Config{
		N: 12, K: 8,
		Algorithm: dynspread.AlgSingleSource,
		Adversary: dynspread.AdvChurn,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Metrics != rep.Metrics || results[0].Rounds != rep.Rounds {
		t.Fatalf("RunSpecs diverged from Run:\n%+v\n%+v", results[0].Metrics, rep.Metrics)
	}
	if !reflect.DeepEqual(results[0].Trial, results[1].Trial) {
		t.Fatalf("identical specs resolved differently")
	}
}

func TestRunResolvesScenario(t *testing.T) {
	res, err := dynspread.Run(dynspread.Config{Scenario: dynspread.ScenTokenStream, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trial
	if tr.Scenario != "token-stream" || tr.N != 24 || tr.K != 48 || tr.Algorithm != "topkis" {
		t.Fatalf("trial not resolved: %+v", tr)
	}
	if len(tr.Arrivals) != 48 {
		t.Fatalf("arrival schedule not materialized: %d entries", len(tr.Arrivals))
	}
	if res.AmortizedPerToken != res.Metrics.AmortizedPerToken(tr.K) {
		t.Fatalf("derived measure mismatch")
	}
	// The service schema round-trips through JSON.
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back dynspread.TrialResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Fatalf("JSON round trip changed the result:\n%+v\n%+v", *res, back)
	}
}

// TestResolvedSpecRoundTrips pins the wire contract: the RESOLVED trial a
// TrialResult carries (scenario expanded into its concrete shape) must be
// accepted verbatim as a new request and reproduce the same execution.
func TestResolvedSpecRoundTrips(t *testing.T) {
	orig, err := dynspread.Run(dynspread.Config{Scenario: dynspread.ScenTokenStream, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if orig.Trial.N == 0 || orig.Trial.Scenario == "" {
		t.Fatalf("resolved trial incomplete: %+v", orig.Trial)
	}
	back, err := dynspread.RunSpecs(context.Background(), []dynspread.TrialSpec{orig.Trial}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back[0], *orig) {
		t.Fatalf("resubmitting the resolved spec diverged:\n%+v\n%+v", *orig, back[0])
	}
	// A genuinely conflicting shape is still rejected.
	bad := orig.Trial
	bad.N = 10
	if _, err := dynspread.RunSpecs(context.Background(), []dynspread.TrialSpec{bad}, 1, nil); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape override accepted: %v", err)
	}
}

func TestRunRecordedReplayReproduces(t *testing.T) {
	cfg := dynspread.Config{
		N: 10, K: 6,
		Algorithm: dynspread.AlgSingleSource,
		Adversary: dynspread.AdvChurn,
		Seed:      11,
	}
	orig, gt, err := dynspread.RunRecorded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversary = ""
	cfg.Replay = gt
	replayed, err := dynspread.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Adversary != "trace-replay" {
		t.Fatalf("adversary = %q", replayed.Adversary)
	}
	if replayed.Metrics != orig.Metrics || replayed.Rounds != orig.Rounds {
		t.Fatalf("replay diverged:\n%+v\n%+v", orig.Metrics, replayed.Metrics)
	}
	// The resolved spec is honest about the dynamics: no adversary name (the
	// trace ran, not an adversary) and a replay marker — and because the
	// trace is not part of the wire schema, the spec is not resubmittable.
	if replayed.Trial.Adversary != "" || !replayed.Trial.Replay {
		t.Fatalf("replay trial misdescribes its dynamics: %+v", replayed.Trial)
	}
	if _, err := dynspread.RunSpecs(context.Background(), []dynspread.TrialSpec{replayed.Trial}, 1, nil); err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("replay spec resubmission not rejected: %v", err)
	}
}

// TestReplayFailureNamesTraceReplay: in either mode, a replay whose trace
// fails validation reports the trace-replay dynamics, not an empty name.
func TestReplayFailureNamesTraceReplay(t *testing.T) {
	bad := &dynspread.GraphTrace{N: 5, Rounds: []trace.RoundEvents{{Del: [][2]int{{0, 1}}}}}
	const want = `dynspread: adversary "trace-replay": trace: round 1 deletes edge {0,1} not present`
	for _, alg := range []dynspread.Algorithm{dynspread.AlgSingleSource, dynspread.AlgFlooding} {
		_, err := dynspread.Run(dynspread.Config{N: 5, K: 3, Algorithm: alg, Replay: bad, Seed: 1})
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", alg, err, want)
		}
	}
}
