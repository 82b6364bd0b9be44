package main

import (
	"fmt"
	"runtime"
)

// checkGates checks, from the traced run's metrics, that the workload still
// stresses the layer it exists to stress, prints one line per gate, and
// returns how many failed. A failed gate does not make a result wrong — it
// makes the workload the wrong workload — so it fails the whole-set command
// and -selfcheck, which whoever retunes the benchmark runs, and is only
// reported (bench.gates_failed) by a single-workload run, which a change to
// the engine is measured with: an optimisation that shrinks a layer's share
// must not be rejected for succeeding.
func checkGates(def workloadDef, res *result, e *env) int {
	failed := 0
	gate := func(name string, ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("# gate %s %-28s %s\n", verdict, name, fmt.Sprintf(format, args...))
	}
	get := res.get

	hit := get("engine.plancache_hit_ratio")
	if def.allPlanCacheHits {
		gate("plancache_all_hits", hit >= 1, "engine.plancache_hit_ratio %g, designed 1", hit)
	} else {
		gate("plancache_all_misses", hit <= 0, "engine.plancache_hit_ratio %g, designed 0", hit)
	}
	gate("attributed", get("unattributed_share") <= 0.1, "unattributed_share %.4f <= 0.1", get("unattributed_share"))
	switch def.name {
	case "point_warm":
		// The front end as the engine sees it: parse, shape/cache/admission,
		// and the workload-store record.
		front := get("sqlparse.share") + get("engine.frontend_share") + get("querystore.share")
		gate("front_end_dominates", front >= 0.4, "sqlparse+frontend+querystore share %.3f >= 0.4", front)
		gate("exec_is_minor", get("exec.share") < 0.5, "exec.share %.3f < 0.5", get("exec.share"))
	case "adhoc_plan":
		planning := get("optimizer.share") + get("cardest.share")
		gate("planning_dominates", planning >= 0.4, "optimizer+cardest share %.3f >= 0.4", planning)
	case "analytic_mem":
		gate("exec_dominates", get("exec.share") >= 0.9, "exec.share %.3f >= 0.9", get("exec.share"))
	case "analytic_par":
		if runtime.NumCPU() >= 2 {
			gate("partitioned", get("exec.partitions_max") >= 2, "exec.partitions_max %g >= 2", get("exec.partitions_max"))
		} else {
			fmt.Println("# gate skip partitioned                  single_core: bounds do not apply")
		}
	case "analytic_spill":
		gate("does_not_fit", e.factPages() > def.spillFrames, "%d pages > %d frames", e.factPages(), def.spillFrames)
		gate("pool_misses", get("storage.pool_hit_ratio") < 0.5, "storage.pool_hit_ratio %.3f < 0.5", get("storage.pool_hit_ratio"))
		gate("no_leaked_pins", get("storage.pinned_after") == 0, "storage.pinned_after %g", get("storage.pinned_after"))
	}
	return failed
}
