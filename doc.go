// Package dynspread is a reproduction of "The Communication Cost of
// Information Spreading in Dynamic Networks" (Ahmadi, Kuhn, Kutten, Molla,
// Pandurangan — ICDCS 2019, arXiv:1806.09847): a simulation library for
// studying the amortized message complexity of k-token dissemination in
// adversarial dynamic networks with token-forwarding algorithms.
//
// The root package is a facade over the layers in internal/ (see
// ARCHITECTURE.md):
//
//   - internal/sim — a single synchronous round engine with two
//     communication modes (unicast and local broadcast), per-Definition-1.1
//     message accounting, per-Definition-1.3 topological-change accounting,
//     and an allocation-free steady-state round: messages carry their
//     payloads as inline values tagged by a PayloadKind bitmask (no
//     per-payload heap pointers), delivery order comes from a counting sort
//     over reusable buckets, and sim.Workspace recycles every per-round
//     buffer (knowledge bitsets resize in place across sweep shapes) — the
//     alloc-gate tests assert zero allocations per round under a static
//     adversary,
//   - internal/registry — the extension point where algorithms and
//     adversaries self-describe (name, mode, builder, doc) and are resolved
//     by name; adding one is a one-file change,
//   - internal/core and internal/adversary — the paper's algorithms
//     (flooding, Single-Source-Unicast = Algorithm 1, Multi-Source-Unicast,
//     Oblivious-Multi-Source-Unicast = Algorithm 2, static baselines) and
//     adversaries (oblivious sequences plus the strongly adaptive
//     request-cutter and Section 2 free-edge lower-bound adversary), all
//     self-registering,
//   - internal/scenario — the workload registry: named scenarios bundling
//     an instance shape, dynamics (an adversary, or a recorded graph trace
//     replayed verbatim), and a token arrival schedule (burst, uniform
//     rate, Poisson-like, or explicit — streaming the engine's token supply
//     over time instead of starting with everything at round 0),
//   - internal/trace — JSONL graph-event traces (record any run's dynamics
//     from the engine's per-round diffs, replay them bit-exactly),
//   - internal/sweep — declarative trial grids (including a scenarios axis)
//     executed on a context-cancellable worker pool sized to GOMAXPROCS
//     with per-worker buffer reuse and a per-result progress hook,
//   - internal/wire — the wire schema (this package re-exports it:
//     TrialSpec, GridSpec, RunRequest, TrialResult) plus the content
//     address Key every cache and store keys on,
//   - internal/service — the simulation service behind cmd/spreadd: an HTTP
//     daemon scheduling trial/sweep jobs on a bounded queue over a
//     pluggable execution backend (the in-process sweep pool by default),
//     with a content-addressed run cache — an LRU, or the internal/store
//     log when the daemon has one — so repeated requests cost zero
//     simulation work,
//   - internal/cluster — the distributed sweep tier: a coordinator that
//     plans deterministic, size-balanced shards, dispatches them across a
//     pool of spreadd workers with per-shard retry and re-dispatch around
//     dead workers, and merges streamed results bit-identical to a local
//     run (spreadd -peers serves it; spreadctl sweep embeds it;
//     RunDistributed is the library facade),
//   - internal/store — the append-only JSONL result log keyed by spec
//     content address that makes distributed sweeps resumable (interrupted
//     runs skip stored keys; warm re-runs simulate nothing), and
//   - internal/experiments — the harness that regenerates every table and
//     figure (see EXPERIMENTS.md), and
//   - internal/analysis — a stdlib-only static-analysis suite behind
//     cmd/spreadvet (`go vet -vettool`) that mechanizes the repository's
//     conventions: hot-path allocation discipline, registry hygiene, span
//     lifecycle, wire-schema tags, and metric naming.
//
// # The hot-path contract
//
// Functions annotated //dynspread:hotpath in their doc comment run inside
// the per-round simulation loop and promise not to allocate in the steady
// state. The hotpath analyzer enforces the contract statically — no map
// literals/writes/makes, no append growth, no fmt/reflect calls, no
// capturing closures, no interface boxing — while the alloc-gate tests
// (alloc_gate_test.go) enforce it dynamically. Constructs inside return
// statements are exempt (failing out of the hot loop may allocate), and a
// deliberate amortized allocation (a buffer that regrows a bounded number
// of times and is then reused forever) is suppressed in code with
//
//	//dynspread:allow hotpath -- <why the allocation is amortized>
//
// on or above the flagged line; the justification is mandatory.
//
// Quick start:
//
//	res, err := dynspread.Run(dynspread.Config{
//		N: 32, K: 64, Sources: 1,
//		Algorithm: dynspread.AlgSingleSource,
//		Adversary: dynspread.AdvChurn,
//		Seed:      1,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Metrics.Messages, res.Metrics.TC, res.Rounds, res.AmortizedPerToken)
//
// Or select a registered workload wholesale — the scenario supplies the
// shape, dynamics, and arrival schedule:
//
//	res, err := dynspread.Run(dynspread.Config{
//		Scenario: dynspread.ScenTokenStream, // tokens arrive 2/round mid-run
//		Seed:     1,
//	})
//
// Scenario, Algorithm, and Adversary values are registry names, so
// components registered by other packages are selectable here too. Record
// any run's dynamics with RunRecorded and replay the returned GraphTrace
// through Config.Replay for bit-exact reproduction. For thousands of
// trials, use internal/sweep's grids instead of calling Run in a loop; to
// serve simulations over HTTP with result caching, run cmd/spreadd (see
// the README's curl quickstart). Run and RunSpecs return the service's
// machine-readable TrialResult schema in-process — the resolved trial, its
// metrics, and the paper's derived cost measures — and RunDistributed
// executes the same requests across a pool of spreadd workers (see the
// README's cluster quickstart and cmd/spreadctl).
//
// See the examples/ directory for runnable scenarios and cmd/ for the CLI
// tools (spreadsim -list prints every registered component).
package dynspread
