// Package engine is a core-named fixture package: determinism must flag its
// calls into goroutine-spawning non-core helpers at the boundary edge.
package engine

import (
	"ml4db/internal/analysis/testdata/src/spawnreach/helper"
	"ml4db/internal/analysis/testdata/src/spawnreach/mlmath"
)

func Train(fns []func()) {
	helper.FanOut(fns) // want "goroutine launch outside mlmath.Pool"
}

func TrainIndirect(fns []func()) {
	helper.Indirect(fns) // want "goroutine launch outside mlmath.Pool"
}

func SumOnly(xs []int) int {
	return helper.Sum(xs)
}

// The sanctioned path: fan-out through the pool.
func PoolFanOut(fns []func()) {
	p := mlmath.NewPool(2)
	for _, f := range fns {
		p.Run(f)
	}
}

func Suppressed(fns []func()) {
	//ml4db:allow determinism "fixture: one-off spawn reviewed for suppression coverage"
	helper.FanOut(fns)
}
