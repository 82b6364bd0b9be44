package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/plan"
)

// passPlan fixes how much of the time budget each pass of a run gets.
// Untraced runs are bounded by time, in whole rounds; the passes of a traced
// run do fixed round counts derived from -seconds and the workload's
// calibrated round rate, so the counts they report repeat exactly.
type passPlan struct {
	setups                        int
	warmFloor, measured           time.Duration
	refRounds, tracedRounds, bare int
}

func planPasses(cfg config, def workloadDef) passPlan {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	rounds := func(share float64) int {
		return max(1, int(math.Round(share*cfg.seconds*def.roundsPerSecond)))
	}
	p := passPlan{
		setups: 3, warmFloor: budget / 20, measured: budget,
		refRounds: rounds(0.3), tracedRounds: rounds(0.1), bare: rounds(0.1),
	}
	if cfg.quick {
		p = passPlan{setups: 1, refRounds: 1, tracedRounds: 1, bare: 1}
	}
	return p
}

// runOne runs one workload in this process and prints its metrics, the
// result object last. A run with a wrong or failed op prints its result and
// then fails.
func runOne(cfg config, name string, traced bool) error {
	def := findWorkload(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var (
		res *result
		err error
	)
	if traced {
		res, err = runTracedWorkload(cfg, def.scaled(cfg.quick), false)
	} else {
		res, err = runUntracedWorkload(cfg, def.scaled(cfg.quick), false)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printEnvelope(cfg, def.name)
	for _, d := range defs {
		fmt.Printf("%-44s %16.6g %s\n", d.name, res.get(d.name), d.unit)
	}
	fmt.Printf("%-44s %16.6g ratio\n", "failed_frac", float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return verdict(def.name, res)
}

// verdict is the error a run with failed or wrong ops ends the command with.
func verdict(name string, res *result) error {
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or returned a wrong result", name, res.Failed, res.Attempted)
	}
	return nil
}

// printEnvelope prints the environment a result was measured in.
func printEnvelope(cfg config, name string) {
	fmt.Printf("# workload=%s seed=%d seconds=%g quick=%v gomaxprocs=%d numcpu=%d go=%s\n",
		name, cfg.seed, cfg.seconds, cfg.quick, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
}

// runUntracedWorkload is the run end-to-end metrics come from: set-up
// (several times, for a steady setup_s) → warm-up → measured pass, tracing
// off throughout.
func runUntracedWorkload(cfg config, def workloadDef, corrupt bool) (*result, error) {
	pp := planPasses(cfg, def)
	var (
		e      *env
		setups []float64
	)
	// timedSetUp sets the workload up once more and records how long that
	// took, at reference speed.
	timedSetUp := func() (*env, error) {
		before := calibrate()
		fresh, err := setUp(def, cfg.seed, nil, cfg.outDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, fresh.setup.Seconds()*speedOf(before, calibrate()))
		return fresh, nil
	}
	// At least pp.setups set-ups, and more of a cheap one — up to a dozen,
	// until three quarters of a second have gone into them. As many again
	// follow the measured pass: a set-up is a short burst, and a batch of
	// them run back to back sits inside one of the host's slow or fast
	// spells, so the median is taken over two batches a pass apart.
	for spent := 0.0; len(setups) < pp.setups || (!cfg.quick && spent < 0.75 && len(setups) < 12); {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = timedSetUp(); err != nil {
			return nil, err
		}
		spent += e.setup.Seconds()
	}
	defer e.close()
	runtime.GC() // the earlier set-ups' garbage is not this pass's to collect

	h := newHarness(e, cfg.seed)
	h.corrupt = corrupt
	if _, err := h.run(true, 0, func(rounds int, el time.Duration) bool {
		return rounds >= 1 && el >= pp.warmFloor
	}); err != nil {
		return nil, err
	}
	ps, err := h.run(false, 0, func(rounds int, el time.Duration) bool {
		return rounds >= 2 && el >= pp.measured
	})
	if err != nil {
		return nil, err
	}
	if ps.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failure:", ps.firstErr)
	}
	for n := len(setups); n > 0 && !cfg.quick; n-- {
		again, err := timedSetUp()
		if err != nil {
			return nil, err
		}
		again.close()
	}

	res := newResult(endToEnd)
	res.Attempted, res.Failed, res.Correct = ps.ops, ps.failed, ps.failed == 0
	kq := float64(ps.ops) / 1000
	res.set("query_p50_ms", ps.roundPercentileMs(0.50))
	res.set("query_p95_ms", ps.roundPercentileMs(0.95))
	res.set("queries_per_s", ps.roundMedian(func(lat []int64) float64 {
		var sum int64
		for _, v := range lat {
			sum += v
		}
		return float64(len(lat)) / (float64(sum) / 1e9)
	}))
	res.set("cpu_s_per_kquery", ps.cpu.Seconds()/kq)
	res.set("allocs_per_query", float64(ps.mallocs)/float64(ps.ops))
	res.set("alloc_kb_per_query", float64(ps.bytes)/1024/float64(ps.ops))
	res.set("setup_s", mlmath.Median(setups))
	fmt.Printf("# speed=%.3f (median factor the timed metrics were scaled to reference speed by; below 1 = the box ran slow)\n",
		mlmath.Median(ps.speeds))
	return res, nil
}

// runTracedWorkload is the run per-layer metrics come from. In a first,
// untraced env it runs a reference pass (the untraced p50 tracing overhead
// is a ratio to, GC numbers, per-template medians), the bare-engine pass and
// the stand-alone executor and storage timings; in a second env, set up with
// a tracer, it runs the traced pass.
func runTracedWorkload(cfg config, def workloadDef, corrupt bool) (*result, error) {
	pp := planPasses(cfg, def)
	res := newResult(perLayer)

	e, err := setUp(def, cfg.seed, nil, cfg.outDir)
	if err != nil {
		return nil, err
	}
	h := newHarness(e, cfg.seed)
	ref, err := untracedReference(h, pp, res)
	e.close()
	if err != nil {
		return nil, err
	}

	// The system clock, as a deployment with tracing on would run it.
	tracer := obs.NewTracer(mlmath.SystemClock{})
	e, err = setUp(def, cfg.seed, tracer, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer e.close()
	h = newHarness(e, cfg.seed)
	h.corrupt = corrupt
	if _, err := h.run(true, 0, roundsOf(1)); err != nil {
		return nil, err
	}
	counters := e.counterMarks()
	// Seven spans an op, kept in memory and then written out: twenty
	// thousand traced ops are plenty for shares and medians.
	tp, err := h.runTraced(tracer, min(pp.tracedRounds, max(1, 20000/h.seq.opsPerRound)))
	if err != nil {
		return nil, err
	}
	if tp.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failure:", tp.firstErr)
	}
	res.Attempted, res.Failed = ref.ops+len(tp.ops), ref.failed+tp.failed
	res.Correct = res.Failed == 0

	spanFile := filepath.Join(cfg.outDir, def.name+".spans.jsonl")
	if err := writeSpans(spanFile, tp.spans); err != nil {
		return nil, err
	}
	if n, err := validateSpans(spanFile); err != nil {
		return nil, fmt.Errorf("%s does not validate: %w", spanFile, err)
	} else if n != len(tp.spans) {
		return nil, fmt.Errorf("%s: %d spans written, %d validated", spanFile, len(tp.spans), n)
	}

	layerMetrics(res, tp, e, counters)
	if def.workers > 1 {
		res.set("exec.par_vs_serial_ratio", parVsSerial(e, tp))
	}
	if p50, ok := percentile(sortedCopy(ref.lat), 0.5); ok && p50 > 0 {
		var q []int64
		for _, o := range tp.ops {
			q = append(q, int64(o.query))
		}
		tq, _ := percentile(sortedCopy(q), 0.5)
		res.set("obs.trace_overhead_ratio", float64(tq)/float64(p50))
	}
	if !cfg.quick {
		res.set("bench.gates_failed", float64(checkGates(def, res, e)))
	}
	return res, nil
}

// untracedReference runs the untraced half of a traced run and fills the
// metrics that come from it.
func untracedReference(h *harness, pp passPlan, res *result) (*passStats, error) {
	e := h.env
	if _, err := h.run(true, 0, roundsOf(1)); err != nil {
		return nil, err
	}
	runtime.GC()
	ref, err := h.run(false, 0, roundsOf(pp.refRounds))
	if err != nil {
		return nil, err
	}
	if ref.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failure:", ref.firstErr)
	}
	res.set("runtime.gc_cycles", float64(ref.gcCycles))
	res.set("runtime.gc_pause_ms_total", ref.gcPause.Seconds()*1e3)
	res.set("runtime.heap_sys_mb", float64(ref.heapSys)/(1<<20))
	res.set("bench.check_share", ref.check.Seconds()/(ref.query+ref.check).Seconds())
	sorted := sortedCopy(ref.lat)
	if v, ok := percentile(sorted, 0.99); ok && len(sorted) >= 1000 {
		res.set("e2e.query_p99_ms", ms(v))
	}
	for t, name := range h.seq.templates {
		var lat []int64
		for i, v := range ref.lat {
			if int(ref.tmpl[i]) == t {
				lat = append(lat, v)
			}
		}
		v, _ := percentile(sortedCopy(lat), 0.5)
		res.set("stmt."+name+".p50_ms", ms(v))
	}

	onCost, err := observabilityOnCost(h, pp, ref)
	if err != nil {
		return nil, err
	}
	res.set("obs.on_cost_us_p50", onCost)

	if e.bufPool != nil {
		fact := e.cat.Table(e.schema.FactID)
		var per []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := fact.Disk.Scan(func(int64, []int64) error { return nil }); err != nil {
				return nil, err
			}
			per = append(per, float64(time.Since(start).Nanoseconds())/float64(fact.NumDiskPages()))
		}
		res.set("storage.scan_ns_per_page", mlmath.Median(per))
	}
	return ref, nil
}

// observabilityOnCost runs each op through the full engine and through one
// with Metrics and Store off, back to back, alternating which goes first so
// that whatever the first call warms for the second cancels out, and returns
// the median of the paired differences in µs: that resolves a microsecond,
// which the difference of two passes' medians does not. The ops are counted
// and checked into ref.
func observabilityOnCost(h *harness, pp passPlan, ref *passStats) (float64, error) {
	e := h.env
	bare, err := e.bareEngine()
	if err != nil {
		return 0, err
	}
	sess := bare.Session()
	var diffs []int64
	for r := 0; r < pp.bare; r++ {
		ops, err := h.round(pp.refRounds+r, false)
		if err != nil {
			return 0, err
		}
		if r == 0 && h.seq.cycle != nil {
			for i := range ops[:len(h.seq.cycle)] { // fill the bare engine's plan cache
				if _, err := sess.Query(ops[i].sql); err != nil {
					return 0, err
				}
			}
		}
		for i := range ops {
			o := &ops[i]
			timed := func(s *engine.Session) int64 {
				start := time.Now()
				res, err := s.Query(o.sql)
				d := time.Since(start)
				ref.ops++
				if o.verify(res, err) != nil {
					ref.failed++
				}
				return int64(d)
			}
			var full, off int64
			if i%2 == 0 {
				full, off = timed(e.sess), timed(sess)
			} else {
				off, full = timed(sess), timed(e.sess)
			}
			diffs = append(diffs, full-off)
		}
	}
	d, _ := percentile(sortedCopy(diffs), 0.5)
	return us(d), nil
}

// counterMarks snapshots the engine and pool counters the traced pass's
// exact metrics are deltas of.
type counterMarks struct {
	hits, misses, evictions, fallbacks int64
	poolHits, poolMisses, poolEvict    int64
}

func (e *env) counterMarks() counterMarks {
	m := counterMarks{
		hits:      e.metrics.Counter("engine.plancache.hits").Value(),
		misses:    e.metrics.Counter("engine.plancache.misses").Value(),
		evictions: e.metrics.Counter("engine.plancache.evictions").Value(),
		fallbacks: e.metrics.Counter("engine.fallbacks").Value(),
	}
	if e.bufPool != nil {
		st := e.bufPool.Stats()
		m.poolHits, m.poolMisses, m.poolEvict = st.Hits, st.Misses, st.Evictions
	}
	return m
}

// layerMetrics fills the per-layer metrics the traced pass measured.
func layerMetrics(res *result, tp *tracedPass, e *env, before counterMarks) {
	n := float64(len(tp.ops))
	kq := n / 1000
	var total, parse, frontend, present, record, opt, est, execD time.Duration
	var work, rowsOut, estCalls, plans int64
	col := func(f func(*opTimes) time.Duration) []int64 {
		out := make([]int64, len(tp.ops))
		for i := range tp.ops {
			out[i] = int64(f(&tp.ops[i]))
		}
		slices.Sort(out)
		return out
	}
	for i := range tp.ops {
		o := &tp.ops[i]
		total += o.query
		parse += o.parse
		frontend += o.frontend
		present += o.present
		record += o.record
		opt += o.opt
		est += o.queryEst
		execD += o.execD
		work += o.work
		rowsOut += o.rowsOut
		if o.miss {
			plans++
			estCalls += o.estCalls
		}
	}
	// frontend and present are what is left of engine.query and bench.query
	// once the measured and stand-in parts are taken out. If the stand-ins
	// claim more than there is, the over-claim is what the layers fail to
	// account for.
	overclaim := max(0, -frontend) + max(0, -present)
	frontend, present = max(0, frontend), max(0, present)
	share := func(d time.Duration) float64 { return d.Seconds() / total.Seconds() }
	p := func(f func(*opTimes) time.Duration, q float64) float64 {
		v, _ := percentile(col(f), q)
		return us(v)
	}

	res.set("sqlparse.parse_us_p50", p(func(o *opTimes) time.Duration { return o.parse }, 0.5))
	res.set("sqlparse.share", share(parse))
	res.set("engine.frontend_us_p50", p(func(o *opTimes) time.Duration { return o.frontend }, 0.5))
	res.set("engine.frontend_share", share(frontend))
	res.set("engine.present_us_p50", p(func(o *opTimes) time.Duration { return o.present }, 0.5))
	res.set("engine.present_share", share(present))
	res.set("querystore.record_us_p50", p(func(o *opTimes) time.Duration { return o.record }, 0.5))
	res.set("querystore.share", share(record))
	res.set("querystore.dropped_statements", float64(e.store.DroppedStatements()))
	res.set("optimizer.plan_us_p50", p(func(o *opTimes) time.Duration { return o.plan }, 0.5))
	res.set("optimizer.plan_us_p95", p(func(o *opTimes) time.Duration { return o.plan }, 0.95))
	res.set("optimizer.share", share(opt))
	res.set("optimizer.plans_per_kquery", float64(plans)/kq)
	res.set("cardest.share", share(est))
	if e.est != nil {
		v, _ := percentile(sortedCopy(e.est.durs), 0.5)
		res.set("cardest.estimate_us_p50", us(v))
	}
	if plans > 0 {
		res.set("cardest.calls_per_plan", float64(estCalls)/float64(plans))
	}
	res.set("exec.execute_us_p50", p(func(o *opTimes) time.Duration { return o.execD }, 0.5))
	res.set("exec.share", share(execD))
	res.set("exec.work_per_query", float64(work)/n)
	res.set("exec.rows_out_per_query", float64(rowsOut)/n)
	if work > 0 {
		res.set("exec.ns_per_work_unit", float64(execD.Nanoseconds())/float64(work))
	}
	if rowsOut > 0 {
		res.set("exec.ns_per_row_out", float64(execD.Nanoseconds())/float64(rowsOut))
	}
	for _, op := range []plan.OpType{plan.OpSeqScan, plan.OpIndexScan, plan.OpHashJoin, plan.OpNLJoin, plan.OpMergeJoin} {
		res.set("exec."+op.String()+".self_share", share(tp.opSelf["exec."+op.String()]))
	}
	res.set("exec.partitions_max", float64(tp.partitionsMax))
	res.set("unattributed_share", share(overclaim))

	after := e.counterMarks()
	if lookups := (after.hits - before.hits) + (after.misses - before.misses); lookups > 0 {
		res.set("engine.plancache_hit_ratio", float64(after.hits-before.hits)/float64(lookups))
	}
	res.set("engine.plancache_evictions_per_kquery", float64(after.evictions-before.evictions)/kq)
	res.set("engine.fallbacks_per_kquery", float64(after.fallbacks-before.fallbacks)/kq)
	if e.bufPool != nil {
		hits, misses := after.poolHits-before.poolHits, after.poolMisses-before.poolMisses
		res.set("storage.page_misses_per_query", float64(misses)/n)
		res.set("storage.evictions_per_query", float64(after.poolEvict-before.poolEvict)/n)
		if hits+misses > 0 {
			res.set("storage.pool_hit_ratio", float64(hits)/float64(hits+misses))
		}
		res.set("storage.pinned_after", float64(e.bufPool.Stats().Pinned))
	}
}

// parVsSerial executes every statement's cached plan twice through the
// executor alone — as planned on the worker pool, and with the Partitions
// knob stripped — and returns serial time ÷ parallel time.
func parVsSerial(e *env, tp *tracedPass) float64 {
	ex := exec.New(e.cat)
	var serial, parallel time.Duration
	for _, sql := range sortedKeys(tp.lastPlans) {
		planned := tp.lastPlans[sql]
		stripped := planned.Clone()
		stripped.Walk(func(n *plan.Node) { n.Partitions = 0 })
		start := time.Now()
		if _, err := ex.Execute(planned.Clone(), exec.Options{Pool: e.workers}); err != nil {
			return 0
		}
		parallel += time.Since(start)
		start = time.Now()
		if _, err := ex.Execute(stripped, exec.Options{}); err != nil {
			return 0
		}
		serial += time.Since(start)
	}
	if parallel == 0 {
		return 0
	}
	return serial.Seconds() / parallel.Seconds()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
