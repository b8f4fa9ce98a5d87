//go:build race

package core

// raceEnabled reports a -race build. The race runtime's sync.Pool drops a
// random quarter of the items put into it, so one execution can allocate a
// few objects more than the next. Checks that count allocations exactly
// skip under -race; they run in plain builds.
const raceEnabled = true
