package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// This file is the parallel experiment engine. Every Run is hermetic — it
// owns its scheduler, RNG, link, and metrics, and its RunResult is a pure
// function of the RunConfig (including Seed) — so a batch of points is
// embarrassingly parallel. The engine fans points across a worker pool and
// writes each result into the slot matching its input index, which makes
// the output bit-identical regardless of worker count or completion order.

// workerCount is the configured pool size; 0 means GOMAXPROCS.
var workerCount atomic.Int64

// SetWorkers fixes the number of worker goroutines used by RunMany and the
// experiment tables. n <= 0 restores the default (GOMAXPROCS). Safe to call
// concurrently; batches already in flight keep the pool size they started
// with.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCount.Store(int64(n))
}

// Workers returns the pool size the next batch will use.
func Workers() int {
	if n := workerCount.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// DeriveSeed maps a base seed and a point index to a statistically
// independent stream seed. It is sim.DeriveSeed re-exported at the layer
// sweeps are written against; the shard engine derives its per-link streams
// from the same function, so a sweep seed and a constellation seed expand
// identically.
func DeriveSeed(base uint64, i int) uint64 {
	return sim.DeriveSeed(base, i)
}

// RunMany executes every config and returns results in input order. Seeds
// are taken from the configs verbatim, so a RunMany batch reproduces the
// corresponding serial Run loop bit for bit at any worker count.
func RunMany(cfgs []RunConfig) []RunResult {
	return mapIndexed(len(cfgs), func(i int) RunResult {
		return Run(cfgs[i])
	})
}

// mapIndexed evaluates fn(0..n-1) on a pool of Workers() goroutines and
// collects the values by index. Work is handed out through an atomic
// counter, so stragglers never idle the pool. A panic in any worker is
// re-raised on the caller's goroutine after the pool drains.
func mapIndexed[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("bench: worker panic: %v", r))
				}
			}()
			for panicked.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return out
}
