// Package core implements the paper's token-dissemination algorithms — the
// primary contribution of the reproduction:
//
//   - Flooding: the schedule-aligned local-broadcast flooder (each token gets
//     a dedicated n-round window; all holders broadcast it). This is the
//     naive O(n²)-amortized-messages upper bound that Theorem 2.3 shows is
//     optimal up to log factors under a strongly adaptive adversary.
//   - RandomBroadcast and SilentBroadcast: local-broadcast strategies used to
//     probe the Section 2 lower bound's robustness (Lemmas 2.1/2.2).
//   - MultiSource: the Section 3.2.1 Multi-Source-Unicast algorithm with
//     per-source completeness bookkeeping and min-ID source priority;
//     1-adversary-competitive O(n²s + nk) (Theorem 3.5), O(nk) rounds
//     (Theorem 3.6). With s = 1 it is Algorithm 1 (Single-Source-Unicast):
//     1-adversary-competitive O(n² + nk) messages (Theorem 3.1) and O(nk)
//     rounds on 3-edge-stable graphs (Theorem 3.4). The single-source
//     registry entry runs it that way, with E9's random request priority and
//     E11's futile-round stats (SingleSourceOpts) as its only options.
//   - Oblivious: Algorithm 2, the randomized two-phase algorithm for many
//     sources under an oblivious adversary — random-walk center reduction
//     followed by MultiSource from the centers (Theorem 3.8, Table 1).
//   - SpanningTree: the static-network baseline from the introduction
//     (BFS-tree pipelining: O(n + k) rounds, O(n² + nk) messages).
//
// All algorithms are token-forwarding: they store, copy, and forward tokens,
// never combine or code them. The engine in internal/sim enforces this.
package core
