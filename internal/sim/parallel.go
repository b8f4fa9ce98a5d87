package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach is the worker-pool primitive under the sweep layer: it runs a
// job for every index in [0, n) on up to `workers` goroutines (<= 0
// selects runtime.GOMAXPROCS(0)). Each goroutine calls
// newWorker once and feeds every index it claims to the returned job
// function, so workers can hold per-worker state (the sweep layer's
// buffer Workspace) without synchronization. Indices are claimed in order;
// after the first failure no new index is dispatched (in-flight jobs still
// finish). ForEach returns the failing index and its error, or (-1, nil).
func ForEach(n, workers int, newWorker func() func(i int) error) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := job(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}
