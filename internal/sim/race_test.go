//go:build race

package sim

// raceEnabled reports a -race build. The race runtime's sync.Pool drops a
// random quarter of the items put into it, so fmt's printer cache misses
// at random and one execution allocates a few objects more than the next
// (fmt.Sprintf in an adversary's constructor adds 4 when it misses).
// Checks that count allocations exactly skip under -race; they run in
// plain builds.
const raceEnabled = true
