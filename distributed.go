package dynspread

// RunDistributed is the facade over the cluster tier (internal/cluster):
// the distributed counterpart of RunSpecs, executing a wire-form request
// across a pool of spreadd workers with deterministic sharding, per-shard
// retry, re-dispatch around dead workers, and an optional persistent
// result store.

import (
	"context"

	"dynspread/internal/cluster"
	"dynspread/internal/store"
)

// DistributedConfig configures RunDistributed.
type DistributedConfig struct {
	// Workers are the base URLs of the spreadd workers (required).
	Workers []string
	// StoreDir, when non-empty, opens (creating if needed) a persistent
	// result store there: trials whose results are already on disk are
	// served without dispatch, and every new result is appended — so an
	// interrupted call resumes where it stopped, and repeating a request
	// against a warm directory performs zero simulations.
	StoreDir string
	// ShardSize is the target trials per shard (0 = the cluster default).
	ShardSize int
	// OnResult, when non-nil, streams each trial's result as soon as it is
	// known, under the sweep layer's OnResult contract (concurrent,
	// completion-ordered calls).
	OnResult func(i int, r TrialResult)
}

// RunDistributed executes req's trials across cfg.Workers and returns their
// results in input order — bit-identical to RunSpecs over the same request
// on one machine, because every trial is a deterministic function of its
// spec no matter where it runs. A request with Record set gets a round
// series on every result and neither reads nor writes the store. The first
// permanent error (bad spec, shard out of retries, every worker dead,
// cancellation) fails the run.
func RunDistributed(ctx context.Context, req RunRequest, cfg DistributedConfig) ([]TrialResult, error) {
	specs, err := req.Specs()
	if err != nil {
		return nil, err
	}
	ccfg := cluster.Config{Workers: cfg.Workers, ShardSize: cfg.ShardSize}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		ccfg.Store = st
	}
	coord, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	return coord.RunSpecs(ctx, specs, req.Record, cfg.OnResult)
}
