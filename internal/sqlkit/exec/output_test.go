package exec

import (
	"fmt"
	"sort"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

// refPresent is the presentation the SQL front end applied to executed rows
// before the executor took it over, kept as the reference: stable-sort the
// full rows by the ORDER BY keys, truncate to LIMIT, copy out the select list.
// It finds columns through refOffset, the tests' own statement of the layout.
func refPresent(cat *catalog.Catalog, p *plan.Node, full [][]int64, out *plan.Output) [][]int64 {
	rows := append([][]int64(nil), full...)
	keys := make([]int, len(out.OrderBy))
	for i, k := range out.OrderBy {
		keys[i] = refOffset(cat, p, k.Col.Table, k.Col.Col)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for n, off := range keys {
			a, b := rows[i][off], rows[j][off]
			if a == b {
				continue
			}
			if out.OrderBy[n].Desc {
				return a > b
			}
			return a < b
		}
		return false
	})
	if out.Limit >= 0 && len(rows) > out.Limit {
		rows = rows[:out.Limit]
	}
	projected := make([][]int64, len(rows))
	for i, r := range rows {
		projected[i] = make([]int64, len(out.Cols))
		for j, c := range out.Cols {
			projected[i][j] = r[refOffset(cat, p, c.Table, c.Col)]
		}
	}
	return projected
}

// randomOutput draws an output over q's tables: up to five select columns
// with duplicates likely, up to three ORDER BY keys — usually not in the
// select list, directions mixed, low-cardinality columns (foreign keys, the
// dimensions' b) as likely as any, so ties are heavy — and the given limit.
func randomOutput(rng *mlmath.RNG, cat *catalog.Catalog, q *plan.Query, limit int) *plan.Output {
	col := func() plan.AggCol {
		pos := rng.Intn(len(q.Tables))
		return plan.AggCol{Table: pos, Col: rng.Intn(cat.Table(q.Tables[pos]).NumCols())}
	}
	out := &plan.Output{Limit: limit}
	for n := rng.Intn(6); n > 0; n-- {
		if len(out.Cols) > 0 && rng.Intn(3) == 0 {
			out.Cols = append(out.Cols, out.Cols[rng.Intn(len(out.Cols))])
		} else {
			out.Cols = append(out.Cols, col())
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		out.OrderBy = append(out.OrderBy, plan.OrderKey{Col: col(), Desc: rng.Intn(2) == 0})
	}
	return out
}

// TestOutputMatchesSortLimitProject is the differential test for the
// presentation that moved into the executor: over star and chain queries
// drawn the way the plan golden's corpus is × every standard hint set ×
// Partitions ∈ {serial, 4} × in-memory and spilled tables, every random
// output must return exactly refPresent of the same plan's nil-output rows —
// and charge exactly what the nil-output run charges (buffer-pool misses aside). Limits cover none, 0,
// 1, half the rows, exactly the rows and more than the rows; draws with no
// ORDER BY key check LIMIT over executor order.
func TestOutputMatchesSortLimitProject(t *testing.T) {
	type corpus struct {
		name      string
		mem, twin *catalog.Catalog
		queries   []*plan.Query
	}
	star := func() *datagen.StarSchema {
		sch, err := datagen.NewStarSchema(mlmath.NewRNG(41), 2000, 100, 4)
		if err != nil {
			t.Fatal(err)
		}
		fact := sch.Cat.Table(sch.FactID)
		fact.AddIndex(catalog.BuildSecondaryIndex(fact, sch.AttrCols[0]))
		return sch
	}
	chain := func() *datagen.ChainSchema {
		sch, err := datagen.NewChainSchema(mlmath.NewRNG(42), []int{900, 700, 500, 400})
		if err != nil {
			t.Fatal(err)
		}
		return sch
	}
	starMem, starTwin := star(), star()
	spill(t, starTwin.Cat.Table(starTwin.FactID), 8)
	chainMem, chainTwin := chain(), chain()
	spill(t, chainTwin.Cat.Table(chainTwin.TableIDs[0]), 8)
	sg := workload.NewStarGen(starMem, mlmath.NewRNG(43))
	cg := workload.NewChainGen(chainMem, mlmath.NewRNG(44))
	corpora := []corpus{{name: "star", mem: starMem.Cat, twin: starTwin.Cat}, {name: "chain", mem: chainMem.Cat, twin: chainTwin.Cat}}
	for dims := 1; dims <= 4; dims++ {
		corpora[0].queries = append(corpora[0].queries, sg.QueryWithDims(dims), sg.CorrelatedJoinQuery(dims))
	}
	// attr1 has no index: a SeqScan whose filter hands up a selection vector.
	wide := plan.NewQuery(starMem.FactID).AddFilter(0, expr.Pred{Col: starMem.AttrCols[1], Op: expr.GE, Lo: 550})
	corpora[0].queries = append(corpora[0].queries, sg.SelectionQuery(2, false), wide)
	for n := 2; n <= 4; n++ {
		corpora[1].queries = append(corpora[1].queries, cg.Query(n), cg.Query(n))
	}

	pool := mlmath.NewPool(3)
	defer pool.Close()
	rng := mlmath.NewRNG(45)
	checked, ordered, tied := 0, 0, 0
	for _, c := range corpora {
		execs := []struct {
			name string
			e    *Executor
		}{{"mem", New(c.mem)}, {"spilled", New(c.twin)}}
		for qi, q := range c.queries {
			for _, h := range optimizer.StandardHintSets() {
				planned, err := optimizer.New(c.mem).Plan(q, h)
				if err != nil {
					t.Fatalf("%s/%d/%s: %v", c.name, qi, h.Name, err)
				}
				for _, p := range []*plan.Node{stripPartitions(planned), forcePartitions(planned, 4)} {
					for _, x := range execs {
						label := fmt.Sprintf("%s/%d/%s/P=%d/%s", c.name, qi, h.Name, p.Partitions, x.name)
						full, err := x.e.Execute(p, Options{Pool: pool})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						n := len(full.Rows)
						for _, limit := range []int{plan.NoLimit, 0, 1, n / 2, n, n + 7} {
							out := randomOutput(rng, c.mem, q, limit)
							got, err := x.e.Execute(p, Options{Pool: pool, Output: out})
							if err != nil {
								t.Fatalf("%s: %+v: %v", label, *out, err)
							}
							want := refPresent(c.mem, p, full.Rows, out)
							if !sameRows(got.Rows, want) {
								t.Fatalf("%s: output %+v: %d rows differ from sort+limit+project of the plan's %d rows (want %d)",
									label, *out, len(got.Rows), n, len(want))
							}
							// Page misses depend on what earlier runs left in the
							// buffer pool, not on the output asked for.
							gc, fc := got.Counters, full.Counters
							gc.PageMiss, fc.PageMiss = 0, 0
							if gc != fc {
								t.Fatalf("%s: output %+v changed the charges:\ngot  %+v\nwant %+v", label, *out, gc, fc)
							}
							checked++
							if len(out.OrderBy) > 0 && len(want) > 1 {
								ordered++
								k := refOffset(c.mem, p, out.OrderBy[0].Col.Table, out.OrderBy[0].Col.Col)
								seen := map[int64]bool{}
								for _, r := range full.Rows {
									if seen[r[k]] {
										tied++
										break
									}
									seen[r[k]] = true
								}
							}
						}
					}
				}
			}
		}
	}
	// The sweep must really exercise ordering with ties, or the tie rule is
	// untested.
	if ordered < checked/4 || tied < ordered/2 {
		t.Fatalf("of %d outputs only %d ordered more than one row and only %d of those had ties on the first key", checked, ordered, tied)
	}
}

// TestResultRowsNeverAliasTableData: an unfiltered in-memory scan hands its
// parent the table's own columns, and every other column is a slab the
// executor reuses, so the root transposition is all that stands between a
// caller scribbling on Result.Rows and the catalog or the next execution.
// Every returned row must be a full-capacity slice (an append reallocates
// instead of running into the next row); after overwriting and appending to
// every row, the tables are untouched, a re-execution still equals refEval,
// and the first result still holds what was written to it — zero-copy scan at
// the root and under a join, and a filtered scan, serial and partitioned. With
// an Options.Arena, as a session passes, the re-execution overwrites the first
// result instead, and the appends must not have written into the arena.
func TestResultRowsNeverAliasTableData(t *testing.T) {
	cat := pairCatalog(t)
	snapshot := func() [][][]int64 {
		var s [][][]int64
		for id := 0; id < 2; id++ {
			var cols [][]int64
			for _, c := range cat.Table(id).Data {
				cols = append(cols, append([]int64(nil), c...))
			}
			s = append(s, cols)
		}
		return s
	}
	before := snapshot()
	pool := mlmath.NewPool(3)
	defer pool.Close()
	e := New(cat)
	scan := plan.NewScan(0, 0, nil)
	join := plan.NewJoin(plan.OpHashJoin, plan.NewScan(0, 0, nil), plan.NewScan(1, 1, nil), on(0, 0, 1, 0))
	filtered := plan.NewScan(0, 0, []expr.Pred{{Col: 1, Op: expr.GE, Lo: 1}})
	for _, arena := range []*Arena{nil, new(Arena)} {
		for _, base := range []*plan.Node{scan, join, filtered} {
			for _, parts := range []int{1, 4} {
				p := forcePartitions(base, parts)
				res, err := e.Execute(p, Options{Pool: pool, Arena: arena})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) == 0 {
					t.Fatalf("%s returned no rows", p.Head())
				}
				for i, row := range res.Rows {
					if cap(row) != len(row) {
						t.Fatalf("%s: row %d has len %d, cap %d: an append would overwrite its neighbour", p.Head(), i, len(row), cap(row))
					}
					for j := range row {
						row[j] = -1 - int64(i)
					}
					res.Rows[i] = append(row, -7)
				}
				for i, row := range res.Rows {
					if row[0] != -1-int64(i) {
						t.Fatalf("%s: scribbling on another row changed row %d", p.Head(), i)
					}
				}
				if cap(res.Rows) != len(res.Rows) {
					t.Fatalf("%s: Rows has len %d, cap %d: an append would write into the arena", p.Head(), len(res.Rows), cap(res.Rows))
				}
				res.Rows = append(res.Rows, []int64{-9})
				var want Counters
				again, err := e.Execute(p, Options{Pool: pool, Arena: arena})
				if err != nil {
					t.Fatal(err)
				}
				if !sameRows(canonical(again.Rows), canonical(refEval(cat, p, &want))) {
					t.Fatalf("%s P=%d arena=%v: re-execution after scribbling on the first result differs from the reference", p.Head(), parts, arena != nil)
				}
				if arena != nil {
					continue
				}
				for i, row := range res.Rows[:len(res.Rows)-1] {
					if row[0] != -1-int64(i) || row[len(row)-1] != -7 {
						t.Fatalf("%s P=%d: the re-execution wrote into row %d of the first result", p.Head(), parts, i)
					}
				}
			}
		}
	}
	after := snapshot()
	for id := range before {
		for c := range before[id] {
			for r := range before[id][c] {
				if before[id][c][r] != after[id][c][r] {
					t.Fatalf("table %d column %d row %d changed from %d to %d", id, c, r, before[id][c][r], after[id][c][r])
				}
			}
		}
	}
}

// TestArenaKeepsAtMostMaxSlabBytes: an arena grows only for a result that does
// not fit, keeps what it grew only up to maxSlabBytes — a larger result gets a
// one-off arena and the kept one is left as it was — and an empty result is a
// non-nil slice whether the arena is new or holds rows.
func TestArenaKeepsAtMostMaxSlabBytes(t *testing.T) {
	big := maxSlabBytes / 32 // a one-column row costs 8 value bytes and a 24-byte header
	col := make(column, big+1)
	for i := range col {
		col[i] = int64(i)
	}
	present1 := func(a *Arena, n int) [][]int64 {
		return (&execState{a: a}).present(batch{n: n, cols: []column{col}}, nil, []int{0})
	}
	a := new(Arena)
	if rows := present1(a, 0); rows == nil || len(rows) != 0 {
		t.Fatalf("an empty result in a new arena is %#v, want a non-nil empty slice", rows)
	}
	small := present1(a, 1000)
	if cap(a.flat) != 1000 || cap(a.rows) != 1000 || &small[0][0] != &a.flat[0] {
		t.Fatalf("a 1000-row result left an arena of %d values and %d rows", cap(a.flat), cap(a.rows))
	}
	for _, n := range []int{big, big + 1} {
		rows := present1(a, n)
		if kept := 8*n+24*n <= maxSlabBytes; kept != (cap(a.rows) == n) || len(rows) != n || rows[n-1][0] != int64(n-1) {
			t.Fatalf("%d rows (%d bytes): arena of %d rows kept, want it kept: %v", n, 32*n, cap(a.rows), kept)
		}
	}
	if cap(a.rows) != big || &present1(a, 10)[0][0] != &a.flat[0] {
		t.Fatalf("after a result above maxSlabBytes the arena holds %d rows, want the %d it kept", cap(a.rows), big)
	}
	if rows := present1(a, 0); rows == nil || len(rows) != 0 {
		t.Fatalf("an empty result in a used arena is %#v, want a non-nil empty slice", rows)
	}
}
