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
)

// warmStatements are the three cheap shapes of the end-to-end benchmark's
// point_warm workload (bench/stmts.go): an indexed point lookup, a narrow
// indexed range, and a dimension row by id. The executor's share of each is
// small, so what is measured is the front end: statement-memo and plan-cache
// hits, instruments, workload record, projection.
var warmStatements = []struct{ name, sql string }{
	{"point", "SELECT * FROM fact WHERE attr2 = 600 LIMIT 10"},
	{"range", "SELECT * FROM fact WHERE attr0 BETWEEN 100 AND 101 LIMIT 20"},
	{"dim", "SELECT * FROM dim1 WHERE id = 77"},
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
// statement, 6 / 6 / 6 in a plain build and under -race (which is how
// scripts/check.sh runs it), and checks that each of those calls was served
// by the statement memo. History, plain build: 40 / 38 / 39 with a formatted
// plan-cache key string and a reflection-based sort of the shape's
// predicates, 36 / 34 / 35 while every hit deep-cloned the cached plan and
// the executor looked its two instruments up by name, 34 / 32 / 33 while
// every call parsed its text and rendered its shape (36 / 35–36 / 34–35
// under -race), 9 / 9 / 9 (ceiling 10) while every call built a fresh
// RowsResult and wrote its rows into a fresh arena.
func TestQueryWarmAllocContract(t *testing.T) {
	sess, reg := warmSession(t)
	hits := reg.Counter("engine.stmtcache.hits")
	const runs = 200
	ceilings := map[string]float64{"point": 6, "range": 6, "dim": 6}
	for _, st := range warmStatements {
		before := hits.Value()
		got := testing.AllocsPerRun(runs, func() {
			if _, err := sess.Query(st.sql); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceilings[st.name] {
			t.Errorf("%s: %.0f allocs per warm query, ceiling %.0f", st.name, got, ceilings[st.name])
		}
		// AllocsPerRun makes one warm-up call before the runs it measures.
		if n := hits.Value() - before; n != runs+1 {
			t.Errorf("%s: %d statement-memo hits in %d warm calls", st.name, n, runs+1)
		}
	}
}
