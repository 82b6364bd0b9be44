package main

// metricDef names one metric. The two tables below are the single list of
// what the benchmark reports; BENCHMARK.json repeats it and a test holds
// the two together.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median an end-to-end metric may get
	// worse by before a change counts as a regression.
	bound float64
	// exact marks counts that must repeat exactly for the same seed.
	exact bool
}

// endToEnd come from the untraced pass, the same seven on every workload.
// failed_frac, the eighth end-to-end number, is always 0 on a passing run,
// so it is carried by the result's failed/attempted fields instead of a
// bounded metric.
var endToEnd = []metricDef{
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_s_per_kquery", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_query", unit: "count", better: "lower", bound: 0.03},
	{name: "alloc_kb_per_query", unit: "KiB", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// statementTemplates are the nine stmt.<template>.p50_ms metrics; each
// workload fills the three that are its own.
var statementTemplates = []string{"point", "range", "dim", "star5", "star6", "star7", "filter", "join2", "top3"}

// perLayer come from the traced run. A metric that does not apply to a
// workload (storage.* on an in-memory one, a template of another workload,
// p99 below 1000 ops) reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "sqlparse.parse_us_p50", unit: "us", better: "lower"},
		{name: "sqlparse.share", unit: "ratio", better: "lower"},
		{name: "engine.frontend_us_p50", unit: "us", better: "lower"},
		{name: "engine.frontend_share", unit: "ratio", better: "lower"},
		{name: "engine.present_us_p50", unit: "us", better: "lower"},
		{name: "engine.present_share", unit: "ratio", better: "lower"},
		{name: "engine.plancache_hit_ratio", unit: "ratio", better: "higher", exact: true},
		{name: "engine.plancache_evictions_per_kquery", unit: "count", better: "lower", exact: true},
		{name: "engine.fallbacks_per_kquery", unit: "count", better: "lower", exact: true},
		{name: "obs.on_cost_us_p50", unit: "us", better: "lower"},
		{name: "obs.trace_overhead_ratio", unit: "ratio", better: "lower"},
		{name: "querystore.record_us_p50", unit: "us", better: "lower"},
		{name: "querystore.share", unit: "ratio", better: "lower"},
		{name: "querystore.dropped_statements", unit: "count", better: "lower", exact: true},
		{name: "optimizer.plan_us_p50", unit: "us", better: "lower"},
		{name: "optimizer.plan_us_p95", unit: "us", better: "lower"},
		{name: "optimizer.share", unit: "ratio", better: "lower"},
		{name: "optimizer.plans_per_kquery", unit: "count", better: "lower", exact: true},
		{name: "cardest.estimate_us_p50", unit: "us", better: "lower"},
		{name: "cardest.calls_per_plan", unit: "count", better: "lower", exact: true},
		{name: "cardest.share", unit: "ratio", better: "lower"},
		{name: "exec.execute_us_p50", unit: "us", better: "lower"},
		{name: "exec.share", unit: "ratio", better: "lower"},
		{name: "exec.work_per_query", unit: "count", better: "lower", exact: true},
		{name: "exec.rows_out_per_query", unit: "count", better: "lower", exact: true},
		{name: "exec.ns_per_work_unit", unit: "ns", better: "lower"},
		{name: "exec.ns_per_row_out", unit: "ns", better: "lower"},
		{name: "exec.SeqScan.self_share", unit: "ratio", better: "lower"},
		{name: "exec.IndexScan.self_share", unit: "ratio", better: "lower"},
		{name: "exec.HashJoin.self_share", unit: "ratio", better: "lower"},
		{name: "exec.NLJoin.self_share", unit: "ratio", better: "lower"},
		{name: "exec.MergeJoin.self_share", unit: "ratio", better: "lower"},
		{name: "exec.par_vs_serial_ratio", unit: "ratio", better: "higher"},
		{name: "exec.partitions_max", unit: "count", better: "higher", exact: true},
		{name: "storage.page_misses_per_query", unit: "count", better: "lower", exact: true},
		{name: "storage.pool_hit_ratio", unit: "ratio", better: "higher", exact: true},
		{name: "storage.evictions_per_query", unit: "count", better: "lower", exact: true},
		{name: "storage.scan_ns_per_page", unit: "ns", better: "lower"},
		{name: "storage.pinned_after", unit: "count", better: "lower", exact: true},
		{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		{name: "runtime.gc_pause_ms_total", unit: "ms", better: "lower"},
		{name: "runtime.heap_sys_mb", unit: "MiB", better: "lower"},
		{name: "e2e.query_p99_ms", unit: "ms", better: "lower"},
		{name: "unattributed_share", unit: "ratio", better: "lower"},
		{name: "bench.check_share", unit: "ratio", better: "lower"},
		{name: "bench.gates_failed", unit: "count", better: "lower"},
	}
	for _, t := range statementTemplates {
		defs = append(defs, metricDef{name: "stmt." + t + ".p50_ms", unit: "ms", better: "lower"})
	}
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult returns a result holding every metric of defs at 0.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// set stores a value under a name the result was created with; any other
// name is a bug in the benchmark.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		//ml4db:allow nakedpanic "a metric name missing from the table above is a bug in this file, caught by the smoke test"
		panic("bench: metric " + name + " is not in the metric table")
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *result) get(name string) float64 { return r.Metrics[name].Value }
