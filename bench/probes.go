package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"dynspread/internal/adversary"
	"dynspread/internal/bitset"
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/store"
	"dynspread/internal/sweep"
	"dynspread/internal/wire"
)

// Layer probes: fixed-input measurements of single layers through their
// public constructors, the same in every traced run, so a change to one
// layer shows up as a number for that layer.

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int

// simProbe runs trials one after another on a warm workspace and reports
// the engine's time, allocations and bytes per round.
func (b *bench) simProbe(trials []sweep.Trial) error {
	ws := sim.NewWorkspace()
	for _, t := range trials {
		if _, err := sweep.RunTrial(t, ws); err != nil {
			return err
		}
	}
	clock := readAllocs()
	rounds := 0
	for _, t := range trials {
		r, err := sweep.RunTrial(t, ws)
		if err != nil {
			return err
		}
		rounds += r.Res.Rounds
	}
	ns, allocs, bytes := clock.per(rounds)
	b.metric("sim.ns_per_round", ns, "ns")
	b.metric("sim.allocs_per_round", allocs, "count")
	b.metric("sim.bytes_per_round", bytes, "B")
	return nil
}

// probes measures the adversary, graph, bitset, wire and store layers.
func (b *bench) probes() error {
	if err := b.probeAdversary(); err != nil {
		return err
	}
	if err := b.probeGraph(); err != nil {
		return err
	}
	b.probeBitset()
	res, snap, err := probeResult()
	if err != nil {
		return err
	}
	if err := b.probeWire(res, snap); err != nil {
		return err
	}
	return b.probeStore(res)
}

const probeN = 32

// probeAdversary times Graph(r) of the four dynamic oblivious sequences.
func (b *bench) probeAdversary() error {
	const rounds = 1500
	churn, err := adversary.NewChurn(probeN, adversary.ChurnOpts{Sigma: 3}, 7)
	if err != nil {
		return err
	}
	markov, err := adversary.NewMarkovian(probeN, 0.05, 0.2, 7)
	if err != nil {
		return err
	}
	rewire, err := adversary.NewRewire(probeN, 0, 7)
	if err != nil {
		return err
	}
	regular, err := adversary.NewRegular(probeN, 6, 7)
	if err != nil {
		return err
	}
	seqs := []adversary.Sequence{churn, markov, rewire, regular}
	clock := readAllocs()
	for _, s := range seqs {
		for r := 1; r <= rounds; r++ {
			sink += s.Graph(r).M()
		}
	}
	ns, allocs, _ := clock.per(rounds * len(seqs))
	b.metric("adversary.graph_us", ns/1e3, "us")
	b.metric("adversary.allocs_per_graph", allocs, "count")
	return nil
}

// probeGraph times the per-round diff and a connectivity check over a
// churn sequence's consecutive graphs.
func (b *bench) probeGraph() error {
	const rounds, sweeps = 1000, 5
	seq, err := adversary.NewChurn(probeN, adversary.ChurnOpts{Sigma: 3}, 11)
	if err != nil {
		return err
	}
	gs := make([]*graph.Graph, rounds)
	for r := range gs {
		gs[r] = seq.Graph(r + 1).Clone()
	}
	start := time.Now()
	for k := 0; k < sweeps; k++ {
		for r := 1; r < rounds; r++ {
			d := graph.Compute(gs[r-1], gs[r])
			sink += len(d.Inserted) + len(d.Removed)
		}
	}
	b.metric("graph.diff_us", float64(time.Since(start).Nanoseconds())/1e3/float64(sweeps*(rounds-1)), "us")
	start = time.Now()
	for k := 0; k < sweeps; k++ {
		for _, g := range gs {
			sink += g.Components()
		}
	}
	b.metric("graph.connected_us", float64(time.Since(start).Nanoseconds())/1e3/float64(sweeps*rounds), "us")
	return nil
}

// probeBitset times the adaptive knowledge-set kernels at K=2048 against a
// half-full dense set, with the adaptive set 10% full (sparse) and 90% full
// (dense).
func (b *bench) probeBitset() {
	const k, iters = 2048, 100_000
	rng := rand.New(rand.NewPCG(1, 2))
	o := bitset.New(k)
	for i := 0; i < k; i++ {
		if rng.IntN(2) == 0 {
			o.Add(i)
		}
	}
	for _, occ := range []int{10, 90} {
		s := adaptive.New(k)
		for s.Count() < k*occ/100 {
			s.Add(rng.IntN(k))
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			sink += s.UnionCount(o)
		}
		b.metric(fmt.Sprintf("bitset.union_count_ns.occ%d", occ), float64(time.Since(start).Nanoseconds())/iters, "ns")
		start = time.Now()
		for i := 0; i < iters; i++ {
			sink += s.FirstNotIn(o)
		}
		b.metric(fmt.Sprintf("bitset.first_not_in_ns.occ%d", occ), float64(time.Since(start).Nanoseconds())/iters, "ns")
	}
}

// probeResult runs one recorded trial for the wire and store probes.
func probeResult() (wire.TrialResult, *sim.RecorderSnapshot, error) {
	t := sweep.Trial{N: probeN, K: probeN, Algorithm: "single-source", Adversary: "churn", Seed: 7}
	r, err := sweep.RunTrialRecorded(t, nil, sim.NewRecorder(sim.RecorderConfig{Stride: 4}))
	if err != nil {
		return wire.TrialResult{}, nil, err
	}
	res := wire.ResultFromSweep(r)
	res.RoundSeries = nil
	return res, r.Rounds, nil
}

// timeUs runs fn iters times and returns the mean in microseconds.
func timeUs(iters int, fn func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(iters), nil
}

// probeWire times the content address and the JSON codecs of a result and
// of a round series.
func (b *bench) probeWire(res wire.TrialResult, snap *sim.RecorderSnapshot) error {
	const iters = 5000
	resJSON, err := json.Marshal(res)
	if err != nil {
		return err
	}
	seriesJSON, err := json.Marshal(wire.SeriesFromSnapshot(snap))
	if err != nil {
		return err
	}
	probes := []struct {
		name string
		fn   func() error
	}{
		{"wire.key_us", func() error { sink += len(wire.Key(res.Trial)); return nil }},
		{"wire.result_encode_us", func() error {
			out, err := json.Marshal(res)
			sink += len(out)
			return err
		}},
		{"wire.result_decode_us", func() error {
			var out wire.TrialResult
			return json.Unmarshal(resJSON, &out)
		}},
		{"wire.series_encode_us", func() error {
			out, err := json.Marshal(wire.SeriesFromSnapshot(snap))
			sink += len(out)
			return err
		}},
		{"wire.series_decode_us", func() error {
			var out wire.RoundSeries
			err := json.Unmarshal(seriesJSON, &out)
			sink += len(out.Samples())
			return err
		}},
	}
	for _, p := range probes {
		us, err := timeUs(iters, p.fn)
		if err != nil {
			return err
		}
		b.metric(p.name, us, "us")
	}
	return nil
}

// probeStore times Put into a fresh store, re-opening it, and Get.
func (b *bench) probeStore(res wire.TrialResult) error {
	const n = 2000
	dir := filepath.Join(b.tmp, "probe-store")
	keys := make([]string, n)
	results := make([]wire.TrialResult, n)
	for i := range keys {
		results[i] = res
		results[i].Trial.Seed = int64(i)
		keys[i] = wire.Key(results[i].Trial)
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	i := 0
	us, err := timeUs(n, func() error { err := st.Put(keys[i], results[i]); i++; return err })
	if err != nil {
		return err
	}
	b.metric("store.put_us", us, "us")
	stats := st.Stats()
	b.metric("store.bytes_per_result", float64(stats.AppendedBytes)/float64(stats.Puts), "B")
	if err := st.Close(); err != nil {
		return err
	}
	start := time.Now()
	st, err = store.Open(dir)
	if err != nil {
		return err
	}
	b.metric("store.open_ms", ms(time.Since(start)), "ms")
	i = 0
	us, err = timeUs(n, func() error {
		got, ok := st.Get(keys[i])
		if !ok || got.Rounds != results[i].Rounds {
			return fmt.Errorf("store probe: key %d not served back", i)
		}
		i++
		return nil
	})
	if err != nil {
		return err
	}
	b.metric("store.get_us", us, "us")
	return st.Close()
}
