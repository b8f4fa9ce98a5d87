package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"dynspread/internal/sweep"
	"dynspread/internal/wire"
)

// The correctness gate. Every run checks its outputs three ways:
//
//   - every trial completed;
//   - a digest of a fixed prefix of the outputs, at seed 1, equals the one
//     pinned in digests.json (so an engine change that alters any result
//     fails the benchmark, not just the golden tests);
//   - results reached by two paths agree: cached and fresh, streamed and
//     synchronous, cluster and local, warm store and cold dispatch, and a
//     5% sample re-run cold through sweep.RunTrial with no workspace reuse.
//
// Each mismatch counts as a failed operation; any failure makes the run's
// "correct" false and its exit status non-zero.

// pinnedSeed is the seed whose digests digests.json pins.
const pinnedSeed = 1

// digestRows is how many leading results (or, for service-open, requests)
// of a run the digest covers. It is fixed so the digest does not depend on
// --seconds.
const digestRows = 64

//go:embed digests.json
var digestsJSON []byte

var pinnedDigests = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("digests.json: " + err.Error())
	}
	return m
}()

// row is the part of one result the digest covers.
type row struct {
	key          string
	rounds       int
	messages, tc int64
}

func wireRow(r wire.TrialResult) row {
	return row{key: wire.Key(r.Trial), rounds: r.Rounds, messages: r.Metrics.Messages, tc: r.Metrics.TC}
}

func sweepRow(r sweep.Result) row {
	return row{key: wire.Key(wire.SpecFromTrial(r.Trial)), rounds: r.Res.Rounds, messages: r.Res.Metrics.Messages, tc: r.Res.Metrics.TC}
}

// digest is the hex SHA-256 over (key, rounds, messages, TC) of rows, in
// input order.
func digest(rows []row) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s %d %d %d\n", r.key, r.rounds, r.messages, r.tc)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a run's digest with the pinned one; only runs at
// pinnedSeed are pinned.
func checkDigest(pinned map[string]string, workload string, seed int64, got string) error {
	if seed != pinnedSeed {
		return nil
	}
	want, ok := pinned[workload]
	if !ok {
		return fmt.Errorf("no digest is pinned for %s", workload)
	}
	if got != want {
		return fmt.Errorf("%s output digest %s differs from the pinned %s", workload, got, want)
	}
	return nil
}

// sameResult reports whether two wire results describe the same execution.
// Round series are observations, not outcomes, and are not compared.
func sameResult(a, b wire.TrialResult) bool {
	a.RoundSeries, b.RoundSeries = nil, nil
	return reflect.DeepEqual(a, b)
}

// sameOutcome compares two sweep results of the same trial.
func sameOutcome(got, want sweep.Result) error {
	if got.AdversaryName != want.AdversaryName || *got.Res != *want.Res {
		return fmt.Errorf("%s: outcomes differ between runs (%+v vs %+v)", got.Trial, *got.Res, *want.Res)
	}
	return nil
}

// trialFromSpec is the sweep trial a wire spec describes.
func trialFromSpec(s wire.TrialSpec) sweep.Trial {
	return sweep.Trial{
		Scenario: s.Scenario,
		N:        s.N, K: s.K, Sources: s.Sources,
		Algorithm:      s.Algorithm,
		Adversary:      s.Adversary,
		Seed:           s.Seed,
		MaxRounds:      s.MaxRounds,
		Sigma:          s.Sigma,
		CheckStability: s.CheckStability,
		Arrivals:       s.Arrivals,
	}
}

// checkCold re-runs spec without workspace reuse and compares the outcome
// with got.
func checkCold(spec wire.TrialSpec, got wire.TrialResult) error {
	r, err := sweep.RunTrial(trialFromSpec(spec), nil)
	if err != nil {
		return fmt.Errorf("cold re-run of %v: %w", spec, err)
	}
	if want := wire.ResultFromSweep(r); !sameResult(want, got) {
		return fmt.Errorf("seed %d: served result differs from a cold re-run", spec.Seed)
	}
	return nil
}

// checkCompleted rejects a result whose dissemination did not finish.
func checkCompleted(r wire.TrialResult) error {
	if !r.Completed {
		return fmt.Errorf("trial %s seed %d did not complete in %d rounds", r.Trial.Algorithm, r.Trial.Seed, r.Rounds)
	}
	return nil
}
