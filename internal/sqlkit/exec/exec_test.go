package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// tinyCatalog builds two small tables with a known join result.
func tinyCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.NewCatalog()
	a := catalog.NewTable("a", "id", "v")
	for _, r := range [][]int64{{1, 10}, {2, 20}, {3, 30}, {3, 31}} {
		if err := a.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	b := catalog.NewTable("b", "ref", "w")
	for _, r := range [][]int64{{2, 200}, {3, 300}, {3, 301}, {4, 400}} {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	cat.MustAdd(a)
	cat.MustAdd(b)
	return cat
}

func TestSeqScanWithFilters(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	scan := plan.NewScan(0, 0, []expr.Pred{{Col: 0, Op: expr.GE, Lo: 2}})
	res, err := e.Execute(scan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("filtered scan rows = %d, want 3", len(res.Rows))
	}
	if res.Work != 4 {
		t.Errorf("scan work = %d, want 4 (one per input row)", res.Work)
	}
	if len(res.Actuals) != 1 || res.Actuals[0] != (plan.Actual{Rows: 3, Fetched: 4}) {
		t.Errorf("Actuals = %+v, want one record with Rows 3 of 4 read", res.Actuals)
	}
}

// TestMetricsResolvedOncePerExecutor: exec.queries and exec.work are looked
// up in the registry by the first execution that finds Metrics set, and that
// pair serves every later execution — a registry swapped in afterwards
// receives nothing, nil still switches both off.
func TestMetricsResolvedOncePerExecutor(t *testing.T) {
	e := New(tinyCatalog(t))
	scan := plan.NewScan(0, 0, nil)
	run := func() {
		t.Helper()
		if _, err := e.Execute(scan, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // Metrics nil: free, and nothing is resolved yet
	first, second := obs.NewRegistry(), obs.NewRegistry()
	e.Metrics = first
	run()
	run()
	e.Metrics = second
	run()
	e.Metrics = nil
	run()
	if q, w := first.Counter("exec.queries").Value(), first.Histogram("exec.work", workBuckets); q != 3 || w.Count() != 3 || w.Sum() != 12 {
		t.Errorf("first registry: exec.queries=%d, exec.work count=%d sum=%v, want 3, 3, 12", q, w.Count(), w.Sum())
	}
	if q := second.Counter("exec.queries").Value(); q != 0 {
		t.Errorf("a registry assigned after the first execution counted %d queries, want 0", q)
	}
}

// expectedJoinRows is a⋈b on a.id=b.ref: id 2 matches 1 row, id 3 (x2 in a)
// matches 2 rows in b → 1 + 4 = 5 output rows.
const expectedJoinRows = 5

// on builds the join condition t<lt>.c<lc> = t<rt>.c<rc> for hand-built plans.
func on(lt, lc, rt, rc int) expr.JoinCond {
	return expr.JoinCond{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc}
}

func joinPlanOver(op plan.OpType) *plan.Node {
	l := plan.NewScan(0, 0, nil)
	r := plan.NewScan(1, 1, nil)
	return plan.NewJoin(op, l, r, on(0, 0, 1, 0)) // a.id = b.ref
}

func TestAllJoinOperatorsAgree(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	var results [][][]int64
	for _, op := range plan.AllJoinOps {
		res, err := e.Execute(joinPlanOver(op), Options{})
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if len(res.Rows) != expectedJoinRows {
			t.Errorf("%v produced %d rows, want %d", op, len(res.Rows), expectedJoinRows)
		}
		results = append(results, canonical(res.Rows))
	}
	for i := 1; i < len(results); i++ {
		if !sameRows(results[0], results[i]) {
			t.Errorf("join op %v disagrees with %v", plan.AllJoinOps[i], plan.AllJoinOps[0])
		}
	}
}

func canonical(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func sameRows(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

func TestJoinOutputSchemaIsLeftThenRight(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	res, err := e.Execute(joinPlanOver(plan.OpHashJoin), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if len(row) != 4 {
			t.Fatalf("join row width = %d, want 4", len(row))
		}
		if row[0] != row[2] {
			t.Errorf("join key mismatch in output row %v", row)
		}
	}
}

func TestWorkBudgetAborts(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	_, err := e.Execute(joinPlanOver(plan.OpNLJoin), Options{Budget: &Budget{MaxWork: 3}})
	if !errors.Is(err, ErrWorkBudgetExceeded) {
		t.Errorf("err = %v, want ErrWorkBudgetExceeded", err)
	}
}

func TestNLJoinCostsMoreThanHashJoin(t *testing.T) {
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewChainSchema(rng, []int{2000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	e := New(sch.Cat)
	mk := func(op plan.OpType) *plan.Node {
		l := plan.NewScan(0, sch.TableIDs[0], nil)
		r := plan.NewScan(1, sch.TableIDs[1], nil)
		return plan.NewJoin(op, l, r, on(0, 1, 1, 0)) // t0.next = t1.id
	}
	hres, err := e.Execute(mk(plan.OpHashJoin), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nres, err := e.Execute(mk(plan.OpNLJoin), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hres.Rows) != len(nres.Rows) {
		t.Fatalf("row count mismatch: hash %d vs nl %d", len(hres.Rows), len(nres.Rows))
	}
	if nres.Work < 100*hres.Work {
		t.Errorf("NL work %d should dwarf hash work %d on 2k x 2k", nres.Work, hres.Work)
	}
}

// fuzzKeys decodes a join-key vector: a byte below 0x80 is that small key (so
// duplicates and matches are common), any other byte takes the next eight,
// little-endian, as the key (zero-padded at the end of data).
func fuzzKeys(data []byte) []int64 {
	var keys []int64
	for len(data) > 0 {
		c := data[0]
		if data = data[1:]; c < 0x80 {
			keys = append(keys, int64(c))
			continue
		}
		var word [8]byte
		data = data[copy(word[:], data):]
		keys = append(keys, int64(binary.LittleEndian.Uint64(word[:])))
	}
	return keys
}

// FuzzHashJoin is the hash join on arbitrary build (left) and probe key
// vectors: exactly the rows, in the order, of a probe-major reference loop
// (probe rows ascending, then their matching build rows ascending), the same
// rows as the nested-loop join, a build and a probe unit per input row and an
// output unit per row, and the 3-way partitioned hash join identical to the
// serial one — also under a fuzzed work or row limit, where both must abort
// alike. The join's EstRows, which only sizes the position vectors, is picked
// from 0, 1, the exact row count, ten times it, -1, NaN, +Inf and 1e300. The
// seed corpus (testdata/fuzz/FuzzHashJoin: build sides of 0, 1 and 2 rows,
// duplicates, MinInt64 and MaxInt64 — with 0 in one build in span_extremes —
// and sparse_wide, build keys 1 000 apart whose range admits every probe key
// and whose tags reject most) runs with the ordinary tests; fuzz with
// go test -run '^$' -fuzz FuzzHashJoin ./internal/sqlkit/exec/.
func FuzzHashJoin(f *testing.F) {
	pool := mlmath.NewPool(2)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, build, probe []byte, est uint8, maxWork, maxRows uint16) {
		cat := catalog.NewCatalog()
		for i, keys := range [][]int64{fuzzKeys(build), fuzzKeys(probe)} {
			tbl := catalog.NewTable([]string{"build", "probe"}[i], "k", "id")
			for r, k := range keys[:min(len(keys), 3000)] {
				if err := tbl.AppendRow([]int64{k, int64(r)}); err != nil {
					t.Fatal(err)
				}
			}
			cat.MustAdd(tbl)
		}
		var want [][]int64
		for r, k := range cat.Table(1).Data[0] {
			for l, b := range cat.Table(0).Data[0] {
				if b == k {
					want = append(want, []int64{b, int64(l), k, int64(r)})
				}
			}
		}
		exact := float64(len(want))
		e := New(cat)
		join := func(op plan.OpType) *plan.Node {
			j := plan.NewJoin(op, plan.NewScan(0, 0, nil), plan.NewScan(1, 1, nil), on(0, 0, 1, 0))
			j.EstRows = []float64{0, 1, exact, 10 * exact, -1, math.NaN(), math.Inf(1), 1e300}[est%8]
			return j
		}
		hash, err := runOnce(t, e, join(plan.OpHashJoin), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(hash.Rows, want) {
			t.Fatalf("hash join returned %d rows, the probe-major loop %d, or others, or in another order", len(hash.Rows), len(want))
		}
		nl, err := runOnce(t, e, join(plan.OpNLJoin), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(canonical(hash.Rows), canonical(nl.Rows)) {
			t.Fatalf("hash join returned %d rows, nested loops %d, or different ones", len(hash.Rows), len(nl.Rows))
		}
		c := hash.Counters
		if c.HashBuild != int64(cat.Table(0).NumRows()) || c.HashProbe != int64(cat.Table(1).NumRows()) || c.OutputTuple != int64(len(hash.Rows)) {
			t.Fatalf("counters %+v for %d build, %d probe and %d output rows", c, cat.Table(0).NumRows(), cat.Table(1).NumRows(), len(hash.Rows))
		}
		par, err := runOnce(t, e, forcePartitions(join(plan.OpHashJoin), 3), pool, nil)
		assertIdentical(t, "P=3", hash, nil, par, err)
		b := &Budget{MaxWork: int64(maxWork), MaxRows: int64(maxRows)}
		serial, serr := runOnce(t, e, join(plan.OpHashJoin), nil, b)
		par, perr := runOnce(t, e, forcePartitions(join(plan.OpHashJoin), 3), pool, b)
		assertIdentical(t, fmt.Sprintf("P=3 under %+v", *b), serial, serr, par, perr)
	})
}

// TestThreeWayJoinMatchesBruteForce checks a grouped three-way join against
// a triple loop over the base columns: the rows, and the work counters that
// follow from the data alone, for both inner join operators, every partition
// count, and t0 in memory or spilled.
func TestThreeWayJoinMatchesBruteForce(t *testing.T) {
	sizes := []int{60, 40, 30}
	sch, err := datagen.NewChainSchema(mlmath.NewRNG(2), sizes)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := datagen.NewChainSchema(mlmath.NewRNG(2), sizes)
	if err != nil {
		t.Fatal(err)
	}
	spill(t, twin.Cat.Table(twin.TableIDs[0]), 2)

	// Brute force: SELECT t2.id, COUNT(*), SUM(t0.attr) over
	// t0.next = t1.id AND t1.next = t2.id, grouped by t2.id.
	t0, t1, t2 := sch.Cat.Table(sch.TableIDs[0]), sch.Cat.Table(sch.TableIDs[1]), sch.Cat.Table(sch.TableIDs[2])
	var pairs, triples int64
	groups := map[int64][]int64{}
	for r0 := 0; r0 < t0.NumRows(); r0++ {
		for r1 := 0; r1 < t1.NumRows(); r1++ {
			if t0.Data[1][r0] != t1.Data[0][r1] {
				continue
			}
			pairs++
			for r2 := 0; r2 < t2.NumRows(); r2++ {
				if t1.Data[1][r1] == t2.Data[0][r2] {
					triples++
					id := t2.Data[0][r2]
					if groups[id] == nil {
						groups[id] = []int64{id, 0, 0}
					}
					groups[id][1]++
					groups[id][2] += t0.Data[2][r0]
				}
			}
		}
	}
	if triples == 0 {
		t.Fatal("fixture joins to nothing")
	}
	var wantRows [][]int64
	for _, g := range groups {
		wantRows = append(wantRows, g)
	}
	wantRows = canonical(wantRows)

	n0, n1, n2 := int64(sizes[0]), int64(sizes[1]), int64(sizes[2])
	// The merge join on top sorts and emits the triples; the agg consumes
	// them and emits the groups.
	base := Counters{
		ScanTuples:  n0 + n1 + n2,
		MergeSort:   int64(plan.SortUnits(int(pairs)) + plan.SortUnits(sizes[2])),
		AggInput:    triples,
		OutputTuple: triples + int64(len(groups)),
	}
	hash, nl := base, base
	hash.HashBuild, hash.HashProbe = n0, n1
	hash.OutputTuple += pairs
	nl.NLPairs = n0 * n1

	pool := mlmath.NewPool(3)
	defer pool.Close()
	for _, tc := range []struct {
		op   plan.OpType
		want Counters
	}{{plan.OpHashJoin, hash}, {plan.OpNLJoin, nl}} {
		s0 := plan.NewScan(0, sch.TableIDs[0], nil)
		s1 := plan.NewScan(1, sch.TableIDs[1], nil)
		s2 := plan.NewScan(2, sch.TableIDs[2], nil)
		// ((t0 ⋈ t1) ⋈ t2): t0.next=t1.id, then t1.next=t2.id, grouping by
		// t2.id and summing t0.attr.
		j1 := plan.NewJoin(tc.op, s0, s1, on(0, 1, 1, 0))
		root := plan.NewAgg(plan.NewJoin(plan.OpMergeJoin, j1, s2, on(1, 1, 2, 0)),
			&plan.AggSpec{GroupTable: 2, GroupCol: 0, Sums: []plan.AggCol{{Table: 0, Col: 2}}})
		for name, cat := range map[string]*catalog.Catalog{"mem": sch.Cat, "spilled": twin.Cat} {
			for _, parts := range partitionSweep {
				res, err := New(cat).Execute(forcePartitions(root, parts), Options{Pool: pool})
				if err != nil {
					t.Fatalf("%v/%s/P=%d: %v", tc.op, name, parts, err)
				}
				if !sameRows(res.Rows, wantRows) {
					t.Errorf("%v/%s/P=%d: rows %v, brute force %v", tc.op, name, parts, res.Rows, wantRows)
				}
				if got := closedForm(res.Counters); got != tc.want {
					t.Errorf("%v/%s/P=%d: counters\ngot  %+v\nwant %+v", tc.op, name, parts, got, tc.want)
				}
			}
		}
	}
}

func TestDeterministicWork(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	w1, w2 := int64(0), int64(0)
	for i, w := range []*int64{&w1, &w2} {
		res, err := e.Execute(joinPlanOver(plan.OpMergeJoin), Options{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		*w = res.Work
	}
	if w1 != w2 {
		t.Errorf("work not deterministic: %d vs %d", w1, w2)
	}
}

func TestUnknownOperator(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	bad := &plan.Node{Op: plan.OpType(99), Children: []*plan.Node{plan.NewScan(0, 0, nil), plan.NewScan(1, 1, nil)}}
	if _, err := e.Execute(bad, Options{}); err == nil {
		t.Error("expected error for unknown operator")
	}
}
