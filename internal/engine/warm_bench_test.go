package engine_test

import (
	"testing"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/plan"
)

// warmStatements are the three cheap shapes of the end-to-end benchmark's
// point_warm workload (bench/stmts.go) — an indexed point lookup, a narrow
// indexed range, and a dimension row by id — then a hash join and a top-N.
// The executor's share of the first three is small, so what they measure is
// the front end: statement-memo and plan-cache hits, instruments, workload
// record, projection. The last two run the operators' scratch through the
// session's arena: a hash join of an IndexScan build and a SeqScan probe
// (plan pinned by TestQueryWarmAllocContract), and a filtered SeqScan's
// top 5 by two keys.
var warmStatements = []struct{ name, sql string }{
	{"point", "SELECT * FROM fact WHERE attr2 = 600 LIMIT 10"},
	{"range", "SELECT * FROM fact WHERE attr0 BETWEEN 100 AND 101 LIMIT 20"},
	{"dim", "SELECT * FROM dim1 WHERE id = 77"},
	{"hashjoin", "SELECT fact.attr0, dim0.a FROM fact, dim0 WHERE fact.fk0 = dim0.id AND dim0.id >= 195"},
	{"topn", "SELECT attr0, attr1 FROM fact WHERE attr1 >= 900 ORDER BY attr0 DESC, attr1 LIMIT 5"},
}

// warmSession returns a session over an indexed star schema with Metrics and
// Store on, every warm statement already planned once: each further Query is
// a statement-memo and a plan-cache hit. reg is the engine's registry.
func warmSession(tb testing.TB) (sess *engine.Session, reg *obs.Registry) {
	tb.Helper()
	sch, err := datagen.NewStarSchema(mlmath.NewRNG(5), 20000, 200, 2)
	if err != nil {
		tb.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, sch.AttrCols[0]))
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, sch.AttrCols[2]))
	for _, id := range sch.DimIDs {
		dim := sch.Cat.Table(id)
		dim.AddIndex(catalog.BuildSecondaryIndex(dim, 0))
	}
	sch.Cat.AnalyzeAll(32, 2048)
	reg = obs.NewRegistry()
	sess = engine.New(sch.Cat, engine.Options{
		Metrics: reg,
		Store:   querystore.New(querystore.Options{Clock: &mlmath.ManualClock{T: time.Unix(0, 0)}}),
	}).Session()
	for _, st := range warmStatements {
		rr, err := sess.Query(st.sql)
		if err != nil {
			tb.Fatal(err)
		}
		if len(rr.Rows) == 0 {
			tb.Fatalf("%s returns no rows; the statement measures nothing", st.name)
		}
	}
	return sess, reg
}

// BenchmarkQueryWarm is the micro tier of the front end: one Session.Query
// per iteration at 100 % statement-memo and plan-cache hits. Run with
// go test -run '^$' -bench QueryWarm -benchmem ./internal/engine/.
func BenchmarkQueryWarm(b *testing.B) {
	sess, _ := warmSession(b)
	for _, st := range warmStatements {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rr, err := sess.Query(st.sql)
				if err != nil || !rr.Exec.CacheHit {
					b.Fatalf("err=%v, want a plan-cache hit", err)
				}
			}
		})
	}
}

// TestQueryWarmAllocContract pins the allocations of a warm Session.Query per
// statement, 0 / 0 / 0 for the point_warm shapes in a plain build and under
// -race (which is how scripts/check.sh runs it): the session's arena holds the
// execution's state, scratch, Result and rows, and the query store folds its
// samples in place. The hash join and the top-N allocate only what reaches
// the executor's shard runner as a func value: the range body of each SeqScan
// and of the probe (2 and 1). Each of those calls was served by the statement
// memo. History, plain build: 40 / 38 / 39 with a formatted plan-cache key
// string and a reflection-based sort of the shape's predicates, 36 / 34 / 35
// while every hit deep-cloned the cached plan and the executor looked its two
// instruments up by name, 34 / 32 / 33 while every call parsed its text and
// rendered its shape (36 / 35–36 / 34–35 under -race), 9 / 9 / 9 (ceiling 10)
// while every call built a fresh RowsResult and wrote its rows into a fresh
// arena, 6 / 6 / 6 while each execution allocated its state, need mask,
// offsets and batch header, the engine its Result and the query store a slice
// of heat samples.
func TestQueryWarmAllocContract(t *testing.T) {
	sess, reg := warmSession(t)
	hits := reg.Counter("engine.stmtcache.hits")
	const runs = 200
	pins := map[string]float64{"point": 0, "range": 0, "dim": 0, "hashjoin": 2, "topn": 1}
	for _, st := range warmStatements {
		before := hits.Value()
		got := testing.AllocsPerRun(runs, func() {
			if _, err := sess.Query(st.sql); err != nil {
				t.Fatal(err)
			}
		})
		if got != pins[st.name] {
			t.Errorf("%s: %.0f allocs per warm query, pinned at %.0f", st.name, got, pins[st.name])
		}
		// AllocsPerRun makes one warm-up call before the runs it measures.
		if n := hits.Value() - before; n != runs+1 {
			t.Errorf("%s: %d statement-memo hits in %d warm calls", st.name, n, runs+1)
		}
	}
	rr, err := sess.Query(warmStatements[3].sql)
	if err != nil {
		t.Fatal(err)
	}
	if p := rr.Exec.Plan; p.Op != plan.OpHashJoin || p.Children[0].Op != plan.OpIndexScan || p.Children[1].Op != plan.OpSeqScan {
		t.Errorf("the hash join statement runs\n%s, want a HashJoin of an IndexScan and a SeqScan", p)
	}
}
