package adaptive

import (
	"fmt"
	"testing"

	"dynspread/internal/bitset"
)

// BenchmarkKernels is the calibration table behind the promotion threshold:
// the union-count and scan kernels measured for the sparse list, the dense
// bitset, and the adaptive set at occupancies bracketing the crossover. The
// universe (4096 = 64 words) starts sparse with a promotion threshold of 4
// elements/word = 6.25%, so the 1% column runs the adaptive set in its
// sparse representation and the 10/50/99% columns run it dense. The table
// shows the adaptive set tracks the faster fixed representation's side of
// the crossover at every occupancy — unionCount within noise of the winner,
// scan paying a constant dispatch overhead — while never landing on the
// pathological side (sparse unionCount at 99% occupancy is about 100×
// slower than dense). That crossover is how sparsePerWord = 4 was chosen
// from data.
func BenchmarkKernels(b *testing.B) {
	const n = 4096
	occs := []struct {
		name  string
		count int
	}{
		{"occ1", n / 100},
		{"occ10", n / 10},
		{"occ50", n / 2},
		{"occ99", n * 99 / 100},
	}
	for _, occ := range occs {
		// Deterministic spread of occ.count elements over [0, n).
		elems := make([]int, occ.count)
		for i := range elems {
			elems[i] = i * n / occ.count
		}
		other := bitset.New(n) // same occupancy, offset by one slot
		for _, e := range elems {
			other.Add((e + 1) % n)
		}

		denseBase := bitset.New(n)
		var sparseBase bitset.Sparse
		sparseBase.Reset(n)
		adaptiveBase := New(n)
		for _, e := range elems {
			denseBase.Add(e)
			sparseBase.Insert(e)
			adaptiveBase.Insert(e)
		}

		b.Run(fmt.Sprintf("unionCount/dense/%s", occ.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = denseBase.UnionCount(other)
			}
		})
		b.Run(fmt.Sprintf("unionCount/sparse/%s", occ.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = sparseBase.UnionCountDense(other)
			}
		})
		b.Run(fmt.Sprintf("unionCount/adaptive/%s", occ.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = adaptiveBase.UnionCount(other)
			}
		})

		b.Run(fmt.Sprintf("scan/dense/%s", occ.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum := 0
				denseBase.ForEach(func(e int) { sum += e })
				sinkInt = sum
			}
		})
		b.Run(fmt.Sprintf("scan/sparse/%s", occ.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum := 0
				sparseBase.ForEach(func(e int) { sum += e })
				sinkInt = sum
			}
		})
		b.Run(fmt.Sprintf("scan/adaptive/%s", occ.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum := 0
				adaptiveBase.ForEach(func(e int) { sum += e })
				sinkInt = sum
			}
		})
	}
}

var sinkInt int
