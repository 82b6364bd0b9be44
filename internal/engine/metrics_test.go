package engine_test

import (
	"strings"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/obs"
)

// TestEnginePlanCacheCounters checks that an engine's plan cache counts into
// the engine.plancache.* names: a miss, a hit, and a refresh that
// invalidates the one entry. The LRU's own arithmetic is scripted on it
// directly (TestPlanCacheCounterExport).
func TestEnginePlanCacheCounters(t *testing.T) {
	sch := chainCatalog(t, 11)
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg})
	q := chainQuery(sch)
	for range 2 {
		if _, err := eng.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	eng.RefreshStats(8, 64)
	for name, want := range map[string]int64{"hits": 1, "misses": 1, "evictions": 0, "invalidations": 1} {
		if got := reg.Counter("engine.plancache." + name).Value(); got != want {
			t.Errorf("engine.plancache.%s = %d, want %d", name, got, want)
		}
	}
	sum := reg.Summary()
	for _, name := range []string{
		"engine.plancache.hits", "engine.plancache.misses",
		"engine.plancache.evictions", "engine.plancache.invalidations",
	} {
		if !strings.Contains(sum, name) {
			t.Errorf("registry summary missing %s:\n%s", name, sum)
		}
	}
}
