package dynspread

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dynspread/internal/sim"
)

func TestRunSingleSourceChurn(t *testing.T) {
	rep, err := Run(Config{
		N: 16, K: 24, Sources: 1,
		Algorithm: AlgSingleSource,
		Adversary: AdvChurn,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("incomplete: %+v", rep)
	}
	if rep.AmortizedPerToken <= 0 || rep.Metrics.Messages == 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.CompetitiveResidual != float64(rep.Metrics.Messages)-float64(rep.Metrics.TC) {
		t.Fatal("competitive residual mismatch")
	}
	if !strings.Contains(rep.Adversary, "churn") {
		t.Fatalf("adversary name = %q", rep.Adversary)
	}
}

func TestRunDefaultsToSingleSourceStatic(t *testing.T) {
	rep, err := Run(Config{N: 8, K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("incomplete")
	}
}

func TestRunAllUnicastAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgSingleSource, AlgMultiSource, AlgOblivious, AlgSpanningTree, AlgTopkis} {
		srcs := 1
		if alg == AlgMultiSource || alg == AlgOblivious {
			srcs = 4
		}
		adv := AdvStatic
		rep, err := Run(Config{
			N: 12, K: 12, Sources: srcs,
			Algorithm: alg, Adversary: adv, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !rep.Completed {
			t.Fatalf("%s: incomplete", alg)
		}
	}
}

func TestRunBroadcastAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgFlooding, AlgRandomBroadcast} {
		rep, err := Run(Config{
			N: 10, K: 10, Sources: 10,
			Algorithm: alg, Adversary: AdvStatic, Seed: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !rep.Completed {
			t.Fatalf("%s: incomplete", alg)
		}
		if rep.Metrics.Broadcasts != rep.Metrics.Messages {
			t.Fatalf("%s: broadcast accounting mismatch", alg)
		}
	}
}

func TestRunFloodingVsFreeEdge(t *testing.T) {
	rep, err := Run(Config{
		N: 12, K: 12, Sources: 12,
		Algorithm: AlgFlooding, Adversary: AdvFreeEdge, Seed: 5,
		MaxRounds: 12 * 12 * 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("flooding must complete against the free-edge adversary")
	}
}

func TestRunAllObliviousAdversaries(t *testing.T) {
	for _, adv := range []Adversary{
		AdvStatic, AdvChurn, AdvRewire, AdvMarkovian, AdvRegular,
		AdvRotatingStar, AdvMobility, AdvRequestCutter,
	} {
		rep, err := Run(Config{
			N: 10, K: 8, Algorithm: AlgSingleSource, Adversary: adv, Seed: 6,
			MaxRounds: 500000,
		})
		if err != nil {
			t.Fatalf("%s: %v", adv, err)
		}
		if !rep.Completed {
			t.Fatalf("%s: incomplete", adv)
		}
	}
}

func TestRunValidation(t *testing.T) {
	cases := []Config{
		{N: 1, K: 1},
		{N: 4, K: 0},
		{N: 4, K: 2, Algorithm: "nope"},
		{N: 4, K: 2, Adversary: "nope"},
		{N: 4, K: 2, Algorithm: AlgSingleSource, Adversary: AdvFreeEdge},
		{N: 4, K: 4, Sources: 4, Algorithm: AlgFlooding, Adversary: AdvRequestCutter},
		{N: 4, K: 2, Sources: 3}, // k < s
	}
	for i, c := range cases {
		if _, err := Run(c); err == nil {
			t.Fatalf("case %d (%+v): expected error", i, c)
		}
	}
}

// TestRunSingleSourceRejectsManySources: Algorithm 1 has one source, so
// more sources is an error that names multi-source. It must not run
// Multi-Source-Unicast under the single-source name, nor spin to the round
// cap because no node starts with all k tokens.
func TestRunSingleSourceRejectsManySources(t *testing.T) {
	_, err := Run(Config{N: 10, K: 10, Sources: 3, Algorithm: AlgSingleSource, Adversary: AdvStatic, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), string(AlgMultiSource)) {
		t.Fatalf("err = %v, want an error naming %s", err, AlgMultiSource)
	}
}

// TestRunJSONRoundTrip: Run's result is the service schema, so its JSON
// carries the paper's cost measures under their wire names and decodes back
// unchanged.
func TestRunJSONRoundTrip(t *testing.T) {
	rep, err := Run(Config{N: 8, K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"completed"`, `"messages"`, `"tc"`, `"amortized_per_token"`, `"competitive_residual"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("JSON missing %s: %s", key, raw)
		}
	}
	var back TrialResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, *rep) {
		t.Fatalf("round trip changed the result:\n%+v\n%+v", *rep, back)
	}
}

// TestRunRecorderLandsOnRoundSeries: a Config.Recorder's samples come back
// on the result's RoundSeries, decoding to exactly the recorder's snapshot.
func TestRunRecorderLandsOnRoundSeries(t *testing.T) {
	rec := sim.NewRecorder(sim.RecorderConfig{Stride: 3, Capacity: 16})
	rep, err := Run(Config{
		N: 12, K: 12, Sources: 1,
		Algorithm: AlgSingleSource,
		Adversary: AdvChurn,
		Seed:      5,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap.Samples) == 0 {
		t.Fatal("recorder took no samples")
	}
	rs := rep.RoundSeries
	if rs == nil {
		t.Fatal("recorded run returned no RoundSeries")
	}
	if rs.Stride != snap.Stride || rs.Capacity != snap.Capacity || rs.Dropped != snap.Dropped {
		t.Fatalf("series header %d/%d/%d, snapshot %d/%d/%d",
			rs.Stride, rs.Capacity, rs.Dropped, snap.Stride, snap.Capacity, snap.Dropped)
	}
	if got := rs.Samples(); !reflect.DeepEqual(got, snap.Samples) {
		t.Fatalf("RoundSeries.Samples() diverges from the recorder snapshot:\n got %+v\nwant %+v", got, snap.Samples)
	}
	plain, err := Run(Config{N: 12, K: 12, Algorithm: AlgSingleSource, Adversary: AdvChurn, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if plain.RoundSeries != nil {
		t.Fatal("unrecorded run carries a RoundSeries")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{N: 10, K: 10, Sources: 2, Algorithm: AlgMultiSource, Adversary: AdvChurn, Seed: 9}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Metrics != b.Metrics {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
