package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/sqlkit/sqlparse"
)

// timedEstimator counts and times every call into the installed learned
// estimator. It is installed in the traced pass only; planning runs on the
// caller's goroutine, so it needs no lock.
type timedEstimator struct {
	inner optimizer.CardEstimator
	clock mlmath.Clock
	calls int64
	spent time.Duration
	durs  []int64 // per-call ns
}

func (t *timedEstimator) note(start time.Time) {
	d := t.clock.Now().Sub(start)
	t.calls++
	t.spent += d
	t.durs = append(t.durs, int64(d))
}

// ScanRows implements optimizer.CardEstimator.
func (t *timedEstimator) ScanRows(q *plan.Query, pos int) float64 {
	defer t.note(t.clock.Now())
	return t.inner.ScanRows(q, pos)
}

// JoinSelectivity implements optimizer.CardEstimator.
func (t *timedEstimator) JoinSelectivity(q *plan.Query, cond expr.JoinCond) float64 {
	defer t.note(t.clock.Now())
	return t.inner.JoinSelectivity(q, cond)
}

// Span names the benchmark records around its calls into each layer. The
// engine's own spans (engine.query, exec.execute, exec.<Op>) are collected
// as they are.
const (
	spanParse  = "bench.parse"  // sqlparse.Parse alone
	spanPlan   = "bench.plan"   // optimizer.Plan alone, on the parsed query
	spanQuery  = "bench.query"  // Session.Query: the op itself
	spanRecord = "bench.record" // querystore.Store.Record alone, on the observed plan
)

// selfTimes returns, per span, its duration minus the time its child spans
// cover (children run one after another here, so that is the sum of their
// durations), never below zero. spans must be in id order with ids 1..n, as
// Tracer.Spans returns them.
func selfTimes(spans []obs.SpanData) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		self[i] += sp.Duration
		if sp.Parent > 0 {
			self[sp.Parent-1] -= sp.Duration
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// adoptEngineSpans makes each root engine.query span a child of the
// bench.query span it ran under. The engine starts its query span as a
// root; the benchmark knows which op it belongs to because ops run one at a
// time and spans are recorded in start order.
func adoptEngineSpans(spans []obs.SpanData) {
	query := 0
	for i := range spans {
		switch {
		case spans[i].Name == spanQuery:
			query = spans[i].ID
		case spans[i].Name == "engine.query" && spans[i].Parent == 0:
			spans[i].Parent = query
		}
	}
}

// opTimes is one traced op's time by layer.
type opTimes struct {
	parse, plan, planEst  time.Duration // the stand-alone calls
	query, engineQ, execD time.Duration // the op itself and the engine's spans inside it
	record, queryEst      time.Duration
	estCalls              int64
	miss                  bool
	work, rowsOut         int64
	// Derived by layers: the self times no span measures directly.
	frontend, present, opt time.Duration
}

// layers derives the self times no span measures directly. Parsing, planning
// and the record call run inside bench.query without spans of their own, so
// their stand-alone timings stand in for them. On a single op a stand-in can
// come out longer than the span it is subtracted from (a GC assist landing
// on one call and not the other), so frontend and present may be negative
// here; they are summed as they are and checked in aggregate.
func (o *opTimes) layers() {
	if o.miss {
		o.opt = o.plan - o.planEst
	}
	o.frontend = o.engineQ - o.execD - o.queryEst - o.record - o.opt
	o.present = o.query - o.engineQ - o.parse
}

// tracedPass is what the traced pass measured.
type tracedPass struct {
	ops      []opTimes
	failed   int
	firstErr error
	// opSelf sums the self time of the engine's spans by name.
	opSelf map[string]time.Duration
	spans  []obs.SpanData
	// partitionsMax is the largest Partitions knob on any executed plan node.
	partitionsMax int
	// lastPlans keeps one executed plan per statement of a warm workload.
	lastPlans map[string]*plan.Node
}

// runTraced drives rounds ops through the traced env. Per op it times
// sqlparse.Parse alone, optimizer.Plan alone, then Session.Query, then
// Store.Record alone on the plan the query executed.
func (h *harness) runTraced(tracer *obs.Tracer, rounds int) (*tracedPass, error) {
	e := h.env
	tp := &tracedPass{opSelf: map[string]time.Duration{}, lastPlans: map[string]*plan.Node{}}
	shadow := querystore.New(querystore.Options{Catalog: e.cat})
	planner := optimizer.New(e.cat)
	planner.Parallelism = e.eng.Parallelism()
	if e.est != nil {
		planner.Est = e.est
	}
	estMark := func() (int64, time.Duration) {
		if e.est == nil {
			return 0, 0
		}
		return e.est.calls, e.est.spent
	}
	first := len(tracer.Spans())
	type extra struct {
		planEst, queryEst time.Duration
		estCalls          int64
		work, rowsOut     int64
	}
	var extras []extra
	for r := 0; r < rounds; r++ {
		ops, err := h.round(r, false)
		if err != nil {
			return nil, err
		}
		for i := range ops {
			o := &ops[i]
			var x extra

			sp := tracer.StartSpan(spanParse, nil)
			st, err := sqlparse.Parse(e.cat, o.sql)
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", o.sql, err)
			}

			_, s0 := estMark()
			sp = tracer.StartSpan(spanPlan, nil)
			_, err = planner.Plan(st.Query, optimizer.NoHint())
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", o.sql, err)
			}
			c1, s1 := estMark()
			x.planEst = s1 - s0

			sp = tracer.StartSpan(spanQuery, nil).SetInt("op", int64(len(extras)))
			res, err := e.sess.Query(o.sql)
			sp.End()
			c2, s2 := estMark()
			x.queryEst, x.estCalls = s2-s1, c2-c1

			if verr := o.verify(res, err); verr != nil {
				tp.failed++
				if tp.firstErr == nil {
					tp.firstErr = verr
				}
			}
			if err == nil {
				x.work, x.rowsOut = res.Exec.Work, int64(len(res.Exec.Rows))
				res.Exec.Plan.Walk(func(n *plan.Node) { tp.partitionsMax = max(tp.partitionsMax, n.Partitions) })
				if h.seq.cycle != nil {
					tp.lastPlans[o.sql] = res.Exec.Plan
				}
				sp = tracer.StartSpan(spanRecord, nil)
				shadow.Record(querystore.Observation{
					Shape: o.sql, Work: res.Exec.Work, Rows: int64(len(res.Exec.Rows)),
					PageMisses: res.Exec.Counters.PageMiss, CacheHit: res.Exec.CacheHit,
					Fallback: res.Exec.Fallback, EstimatorVersion: res.Exec.EstimatorVersion,
					Plan: res.Exec.Plan,
				})
				sp.End()
			}
			extras = append(extras, x)
		}
	}

	tp.spans = tracer.Spans()[first:]
	// Re-base ids so the pass's spans are 1..n on their own.
	for i := range tp.spans {
		tp.spans[i].ID -= first
		if tp.spans[i].Parent > 0 {
			tp.spans[i].Parent -= first
		}
	}
	adoptEngineSpans(tp.spans)
	self := selfTimes(tp.spans)
	var cur *opTimes
	for i, sp := range tp.spans {
		switch sp.Name {
		case spanParse:
			x := extras[len(tp.ops)]
			tp.ops = append(tp.ops, opTimes{parse: sp.Duration, planEst: x.planEst, queryEst: x.queryEst,
				estCalls: x.estCalls, work: x.work, rowsOut: x.rowsOut})
			cur = &tp.ops[len(tp.ops)-1]
		case spanPlan:
			cur.plan = sp.Duration
		case spanQuery:
			cur.query = sp.Duration
		case spanRecord:
			cur.record = sp.Duration
		case "engine.query":
			cur.engineQ = sp.Duration
			for _, a := range sp.Attrs {
				if a.Key == "cache_hit" {
					cur.miss = a.Int == 0
				}
			}
		case "exec.execute":
			cur.execD = sp.Duration
			tp.opSelf[sp.Name] += self[i]
		default:
			if strings.HasPrefix(sp.Name, "exec.") {
				tp.opSelf[sp.Name] += self[i]
			}
		}
	}
	for i := range tp.ops {
		tp.ops[i].layers()
	}
	return tp, nil
}

// writeSpans writes the pass's spans in the obs trace schema, one JSON
// object per line.
func writeSpans(path string, spans []obs.SpanData) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = encodeSpans(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func encodeSpans(w io.Writer, spans []obs.SpanData) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		line := map[string]any{
			"type": "span", "id": sp.ID, "parent": sp.Parent, "name": sp.Name,
			"start": sp.Start.UnixNano(), "duration": sp.Duration.Nanoseconds(),
		}
		if len(sp.Attrs) > 0 {
			attrs := map[string]any{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value()
			}
			line["attrs"] = attrs
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// validateSpans re-reads a span file through the repository's own checker.
func validateSpans(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return obs.ValidateTraceJSONL(f)
}

// bareEngine builds an engine over e's catalog with Metrics, Store and
// Trace all off — the baseline obs.on_cost_us_p50 is measured against. It
// keeps the worker pool and the learned estimator, which are not telemetry.
func (e *env) bareEngine() (*engine.Engine, error) {
	bare := engine.New(e.cat, engine.Options{Pool: e.workers})
	if e.adapter != nil {
		if err := bare.SetEstimator(e.adapter, 1); err != nil {
			return nil, err
		}
	}
	return bare, nil
}
