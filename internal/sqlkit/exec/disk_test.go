package exec

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// diskFixture builds twin catalogs — one in-memory, one spilled to disk
// through pool — holding the same two tables.
func diskFixture(t *testing.T, pool *storage.Pool, nrows int) (mem, disk *catalog.Catalog) {
	t.Helper()
	dir := t.TempDir()
	mem, disk = catalog.NewCatalog(), catalog.NewCatalog()
	for _, spec := range []struct {
		name string
		cols []string
	}{
		{"orders", []string{"id", "cust", "amount"}},
		{"customers", []string{"id", "region"}},
	} {
		mt := catalog.NewTable(spec.name, spec.cols...)
		dt := catalog.NewTable(spec.name, spec.cols...)
		n := nrows
		if spec.name == "customers" {
			n = nrows / 4
		}
		for r := 0; r < n; r++ {
			row := make([]int64, len(spec.cols))
			for c := range row {
				row[c] = int64((r*31 + c*17) % 97)
			}
			row[0] = int64(r % (n/4 + 1))
			if err := mt.AppendRow(row); err != nil {
				t.Fatal(err)
			}
			if err := dt.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		catalog.AnalyzeTable(mt, 16, 64)
		catalog.AnalyzeTable(dt, 16, 64)
		if err := dt.SpillToDisk(filepath.Join(dir, spec.name+".tbl"), pool); err != nil {
			t.Fatal(err)
		}
		mem.MustAdd(mt)
		disk.MustAdd(dt)
	}
	return mem, disk
}

// spill moves tbl behind a fresh buffer pool of the given capacity, in a
// heap file under the test's temp dir, and returns the pool.
func spill(t testing.TB, tbl *catalog.Table, capacity int) *storage.Pool {
	t.Helper()
	pool := storage.NewPool(storage.PoolOptions{Capacity: capacity})
	if err := tbl.SpillToDisk(filepath.Join(t.TempDir(), tbl.Name+".tbl"), pool); err != nil {
		t.Fatal(err)
	}
	return pool
}

func scanNode(tid int, filters ...expr.Pred) *plan.Node {
	return plan.NewScan(0, tid, filters)
}

func TestDiskSeqScanMatchesInMemory(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 2})
	mem, disk := diskFixture(t, pool, 400)
	filters := []expr.Pred{{Col: 2, Op: expr.GE, Lo: 10}}

	rm, err := New(mem).Execute(scanNode(0, filters...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := New(disk).Execute(scanNode(0, filters...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rm.Rows, rd.Rows) {
		t.Fatalf("disk scan rows diverge: %d vs %d rows", len(rd.Rows), len(rm.Rows))
	}
	if rd.Counters.ScanTuples != rm.Counters.ScanTuples {
		t.Fatalf("scan tuples: disk %d vs mem %d", rd.Counters.ScanTuples, rm.Counters.ScanTuples)
	}
	// The disk scan read pages through a 2-frame pool over a larger table:
	// it must have charged misses and recorded them for the scan.
	if rd.Counters.PageMiss == 0 || rd.Actuals[0].PageMisses != rd.Counters.PageMiss {
		t.Fatalf("PageMiss=%d Actuals=%+v", rd.Counters.PageMiss, rd.Actuals)
	}
	if rm.Counters.PageMiss != 0 {
		t.Fatalf("in-memory scan charged %d page misses", rm.Counters.PageMiss)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("scan left %d pinned pages", n)
	}
}

func TestDiskIndexScanMatchesInMemory(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 2})
	mem, disk := diskFixture(t, pool, 400)
	for _, cat := range []*catalog.Catalog{mem, disk} {
		ix, err := catalog.BuildSecondaryIndexIO(cat.Table(0), 2)
		if err != nil {
			t.Fatal(err)
		}
		cat.Table(0).AddIndex(ix)
	}
	node := func(c *catalog.Catalog) *plan.Node {
		n := plan.NewIndexScan(0, 0, 2, []expr.Pred{{Col: 2, Op: expr.BETWEEN, Lo: 20, Hi: 60}})
		_ = c
		return n
	}

	rm, err := New(mem).Execute(node(mem), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := New(disk).Execute(node(disk), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Rows) == 0 || !reflect.DeepEqual(sortedRows(rm.Rows), sortedRows(rd.Rows)) {
		t.Fatalf("disk index scan diverges: %d vs %d rows", len(rd.Rows), len(rm.Rows))
	}
	if rd.Counters.IndexFetch != rm.Counters.IndexFetch {
		t.Fatalf("index fetches: disk %d vs mem %d", rd.Counters.IndexFetch, rm.Counters.IndexFetch)
	}
	if rd.Counters.PageMiss == 0 || rd.Actuals[0].PageMisses != rd.Counters.PageMiss {
		t.Fatalf("PageMiss=%d Actuals=%+v", rd.Counters.PageMiss, rd.Actuals)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("index scan left %d pinned pages", n)
	}
}

func TestDiskJoinMatchesInMemory(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 3})
	mem, disk := diskFixture(t, pool, 200)
	join := func() *plan.Node {
		l := plan.NewScan(0, 0, nil)
		r := plan.NewScan(1, 1, nil)
		return plan.NewJoin(plan.OpHashJoin, l, r, on(0, 1, 1, 0))
	}
	rm, err := New(mem).Execute(join(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := New(disk).Execute(join(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Rows) == 0 || !reflect.DeepEqual(rm.Rows, rd.Rows) {
		t.Fatalf("disk join diverges: %d vs %d rows", len(rd.Rows), len(rm.Rows))
	}
}

func TestDiskScanBudgetAbortLeavesNoPins(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 2})
	_, disk := diskFixture(t, pool, 400)
	res, err := New(disk).Execute(scanNode(0), Options{Budget: &Budget{MaxWork: 50}})
	if !errors.Is(err, ErrWorkBudgetExceeded) {
		t.Fatalf("got %v, want budget abort", err)
	}
	// The rows read and misses charged before the abort stay on the scan's
	// record.
	if want := (plan.Actual{Fetched: res.Counters.ScanTuples, PageMisses: res.Counters.PageMiss}); want.PageMisses == 0 || res.Actuals[0] != want {
		t.Fatalf("aborted scan: Actuals=%+v, Counters.PageMiss=%d", res.Actuals, res.Counters.PageMiss)
	}
	if got := pool.PinnedCount(); got != 0 {
		t.Fatalf("budget-aborted scan left %d pinned pages", got)
	}
	// Row budgets abort through the same path.
	_, err = New(disk).Execute(scanNode(0), Options{Budget: &Budget{MaxRows: 10}})
	if !errors.Is(err, ErrWorkBudgetExceeded) {
		t.Fatalf("got %v, want row-budget abort", err)
	}
	if got := pool.PinnedCount(); got != 0 {
		t.Fatalf("row-budget abort left %d pinned pages", got)
	}
}

// TestDiskPageOfWrongWidthIsAnError overwrites the only page of the 2-column
// customers table with a valid 3-column page. Every disk read path — the
// serial and the partitioned SeqScan, the IndexScan — must fail with
// storage.ErrPageWidth rather than skip or misread the page's tuples, and
// leave no page pinned.
func TestDiskPageOfWrongWidthIsAnError(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 2})
	_, disk := diskFixture(t, pool, 400)
	cust := disk.Table(1)
	ix, err := catalog.BuildSecondaryIndexIO(cust, 0)
	if err != nil {
		t.Fatal(err)
	}
	cust.AddIndex(ix)
	hf := cust.Disk.File()
	if hf.NumPages() != 1 {
		t.Fatalf("customers has %d pages, want 1", hf.NumPages())
	}
	if err := pool.ReleaseFile(hf); err != nil {
		t.Fatal(err)
	}
	wide := storage.NewPage(0, 3)
	if _, ok := wide.Insert([]int64{1, 2, 3}); !ok {
		t.Fatal("insert into an empty page failed")
	}
	if err := hf.WritePage(wide); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan *plan.Node
	}{
		{"SeqScan", scanNode(1)},
		{"SeqScan/P=2", forcePartitions(scanNode(1), 2)},
		{"IndexScan", plan.NewIndexScan(0, 1, 0, []expr.Pred{{Col: 0, Op: expr.GE, Lo: 0}})},
	} {
		if _, err := New(disk).Execute(tc.plan, Options{}); !errors.Is(err, storage.ErrPageWidth) {
			t.Errorf("%s: err = %v, want storage.ErrPageWidth", tc.name, err)
		}
		if n := pool.PinnedCount(); n != 0 {
			t.Errorf("%s: %d pages still pinned", tc.name, n)
		}
	}
}

func sortedRows(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	copy(out, rows)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && lessRow(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func lessRow(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// FuzzScanModes runs a table in memory and spilled behind a three-page pool
// that random Fetches, picked by a hash of the input, warm first: SeqScan at
// P = 1 and P = 3, and IndexScan, must return the same rows in both storage
// modes, the same Counters but for PageMiss (and Work by as much) and the
// ScanTuples of the pages a disk SeqScan's zone maps skip (skips: pages and
// rows both modelled from the rows inserted), the same Actuals but for
// PageMisses and those, and leave no page pinned; the disk SeqScan at P = 3
// must charge exactly what it charges serially, PageMiss included, read no
// page it does not serve and touch each page it does not skip once; and the
// rows must be those a plain row loop over Pred.Eval keeps (in table order
// for SeqScan, as a multiset for IndexScan), a loop that never runs the scan
// kernel's filters. A HashJoin whose build side is a small in-memory table of
// fuzzed keys probes the table, serial and at P = 3: both modes must return
// the rows a probe-major loop returns, the disk probe scan must skip the
// pages the model skips under its filters and the build keys' range, and no
// page may stay pinned; and under work limits the serial and the P = 3 disk
// join must abort alike (assertIdentical). shape decodes a byte at a time
// (zero past its end): the column count (1–60), a filter count (0–4) with per
// filter a column, an operator and a literal, then the indexed column, its
// interval's literal and width, then the probed column and a build key count
// (0–8) with a literal per key. A literal byte b is b − 64, or from 0xF0 up
// an int64 extreme: MinInt64, MinInt64+1, MaxInt64−1 or MaxInt64 (a BETWEEN's
// Hi is Lo + 16, and wraps). values holds the rows, in fuzzKeys' encoding,
// column by column within a row. The seed corpus is
// testdata/fuzz/FuzzScanModes; fuzz with go test -run '^$' -fuzz
// FuzzScanModes ./internal/sqlkit/exec/.
func FuzzScanModes(f *testing.F) {
	workers := mlmath.NewPool(2)
	f.Cleanup(workers.Close)
	f.Fuzz(func(t *testing.T, shape, values []byte) {
		next := func() int64 {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int64(b)
		}
		literal := func() int64 {
			b := next()
			if b >= 0xF0 {
				return [...]int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}[b%4]
			}
			return b - 64
		}
		ncols := int(1 + next()%60)
		var filters []expr.Pred
		for k := next() % 5; k > 0; k-- {
			col, op, lo := int(next())%ncols, expr.Op(next()%7), literal()
			filters = append(filters, expr.Pred{Col: col, Op: op, Lo: lo, Hi: lo + 16})
		}
		ixCol, lo := int(next())%ncols, literal()
		interval := expr.Pred{Col: ixCol, Op: expr.BETWEEN, Lo: lo, Hi: lo + next()}
		probeCol, bm, bd := int(next())%ncols, catalog.NewTable("b", "k"), catalog.NewTable("b", "k")
		for k := next() % 9; k > 0; k-- {
			key := []int64{literal()}
			if err := bm.AppendRow(key); err != nil {
				t.Fatal(err)
			}
			if err := bd.AppendRow(key); err != nil {
				t.Fatal(err)
			}
		}

		names := make([]string, ncols)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		mt, dt := catalog.NewTable("t", names...), catalog.NewTable("t", names...)
		vals := fuzzKeys(values)
		var rows [][]int64
		for r := 0; r+ncols <= min(len(vals), 6000); r += ncols {
			rows = append(rows, vals[r:r+ncols])
			if err := mt.AppendRow(vals[r : r+ncols]); err != nil {
				t.Fatal(err)
			}
			if err := dt.AppendRow(vals[r : r+ncols]); err != nil {
				t.Fatal(err)
			}
		}
		mt.AddIndex(catalog.BuildSecondaryIndex(mt, ixCol))
		pool := spill(t, dt, 3)
		t.Cleanup(func() { dt.Disk.Close() })
		seed := uint64(len(values))
		for _, b := range values {
			seed = seed*131 + uint64(b)
		}
		rng, npages := mlmath.NewRNG(seed), dt.Disk.NumPages()
		if err := pool.ReleaseFile(dt.Disk.File()); err != nil {
			t.Fatal(err)
		}
		for k := rng.Intn(5); k > 0 && npages > 0; k-- {
			h, err := pool.Fetch(dt.Disk.File(), rng.Intn(npages))
			if err != nil {
				t.Fatal(err)
			}
			h.Unpin()
		}
		ix, err := catalog.BuildSecondaryIndexIO(dt, ixCol)
		if err != nil {
			t.Fatal(err)
		}
		dt.AddIndex(ix)
		mem, disk := catalog.NewCatalog(), catalog.NewCatalog()
		mem.MustAdd(mt)
		disk.MustAdd(dt)
		mem.MustAdd(bm)
		disk.MustAdd(bd)
		spp := dt.Disk.File().SlotsPerPage()
		skipped := func(preds []expr.Pred) (pages, tuples int64) { // rows fill pages in order
			for lo := 0; lo < len(rows); lo += spp {
				page := rows[lo:min(lo+spp, len(rows))]
				if skips(preds, len(page), func(r, c int) int64 { return page[r][c] }) {
					pages, tuples = pages+1, tuples+int64(len(page))
				}
			}
			return pages, tuples
		}

		kept := func(preds []expr.Pred) (out [][]int64) {
		row:
			for _, row := range rows {
				for _, f := range preds {
					if !f.Eval(row[f.Col]) {
						continue row
					}
				}
				out = append(out, row)
			}
			return out
		}
		seq := plan.NewScan(0, 0, filters)
		var serial *Result // the disk SeqScan at P = 1
		for _, p := range []*plan.Node{seq, forcePartitions(seq, 3), plan.NewIndexScan(0, 0, ixCol, append([]expr.Pred{interval}, filters...))} {
			label := fmt.Sprintf("%v/P=%d", p.Op, p.Partitions)
			rm, err := New(mem).Execute(p, Options{Pool: workers})
			if err != nil {
				t.Fatalf("%s in memory: %v", label, err)
			}
			want, got := kept(p.Filters), rm.Rows
			if p.Op == plan.OpIndexScan {
				want, got = canonical(want), canonical(got)
			}
			if !sameRows(want, got) {
				t.Fatalf("%s: %d rows in memory, the row loop over %v keeps %d, or different ones", label, len(got), p.Filters, len(want))
			}
			before := pool.Stats()
			rd, err := New(disk).Execute(p, Options{Pool: workers})
			if err != nil {
				t.Fatalf("%s on disk: %v", label, err)
			}
			if !reflect.DeepEqual(rm.Rows, rd.Rows) {
				t.Fatalf("%s: %d rows in memory, %d on disk, or different ones", label, len(rm.Rows), len(rd.Rows))
			}
			if st, a := pool.Stats(), rd.Actuals[0]; p.Op == plan.OpSeqScan && (st.Hits+st.Misses-before.Hits-before.Misses != int64(npages)-a.PagesSkipped ||
				st.PagesRead-before.PagesRead != st.Misses-before.Misses || st.Resident != before.Resident) {
				t.Fatalf("%s: pool %+v -> %+v for %d pages, %d skipped", label, before, st, npages, a.PagesSkipped)
			}
			switch {
			case p.Op != plan.OpSeqScan:
			case serial == nil:
				serial = rd
			case rd.Counters != serial.Counters || rd.Work != serial.Work || !reflect.DeepEqual(rd.Actuals, serial.Actuals):
				t.Fatalf("%s: counters %+v (work %d), actuals %+v; serially %+v (work %d), %+v", label, rd.Counters, rd.Work, rd.Actuals, serial.Counters, serial.Work, serial.Actuals)
			}
			var pages, tuples int64
			if p.Op == plan.OpSeqScan {
				pages, tuples = skipped(p.Filters)
			}
			misses := rd.Counters.PageMiss
			ctr := rd.Counters
			ctr.PageMiss, ctr.ScanTuples = 0, ctr.ScanTuples+tuples
			if ctr != rm.Counters || rd.Work-misses+tuples != rm.Work {
				t.Fatalf("%s: counters %+v (work %d) in memory, %+v (work %d) on disk, %d rows skipped", label, rm.Counters, rm.Work, rd.Counters, rd.Work, tuples)
			}
			am, ad := rm.Actuals[0], rd.Actuals[0]
			ad.PageMisses, ad.Fetched, ad.PagesSkipped = 0, ad.Fetched+tuples, ad.PagesSkipped-pages
			if am != ad || len(rm.Actuals) != 1 || len(rd.Actuals) != 1 {
				t.Fatalf("%s: actuals %+v in memory, %+v on disk, %d pages of %d rows skipped", label, rm.Actuals, rd.Actuals, pages, tuples)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%s: %d pages still pinned", label, n)
			}
		}

		var want [][]int64
		kmin, kmax := int64(math.MaxInt64), int64(math.MinInt64)
		for _, k := range bm.Data[0] {
			kmin, kmax = min(kmin, k), max(kmax, k)
		}
		for _, row := range kept(filters) {
			for _, k := range bm.Data[0] {
				if k == row[probeCol] {
					want = append(want, append([]int64{k}, row...))
				}
			}
		}
		pages, _ := skipped(append([]expr.Pred{{Col: probeCol, Op: expr.BETWEEN, Lo: kmin, Hi: kmax}}, filters...))
		join := plan.NewJoin(plan.OpHashJoin, plan.NewScan(1, 1, nil), plan.NewScan(0, 0, filters), on(1, 0, 0, probeCol))
		for _, p := range []*plan.Node{join, forcePartitions(join, 3)} {
			label := fmt.Sprintf("HashJoin/P=%d", p.Partitions)
			rm, err := New(mem).Execute(p, Options{Pool: workers})
			if err != nil {
				t.Fatalf("%s in memory: %v", label, err)
			}
			rd, err := New(disk).Execute(p, Options{Pool: workers})
			if err != nil {
				t.Fatalf("%s on disk: %v", label, err)
			}
			if !sameRows(want, rm.Rows) || !reflect.DeepEqual(rm.Rows, rd.Rows) {
				t.Fatalf("%s: %d rows in memory, %d on disk, the probe-major loop %d, or different ones", label, len(rm.Rows), len(rd.Rows), len(want))
			}
			if got := rd.Actuals[2].PagesSkipped; got != pages {
				t.Fatalf("%s: the probe scan skipped %d pages, the model %d", label, got, pages)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%s: %d pages still pinned", label, n)
			}
		}
		// Under work limits from 1 to 1 past the full run's work — every one, or
		// 512 evenly spaced on a large input — the serial and the partitioned
		// disk join, each from a cold pool, stop on the same charge with the
		// same records.
		cold := func(p *plan.Node, b *Budget) (*Result, error) {
			if err := pool.ReleaseFile(dt.Disk.File()); err != nil {
				t.Fatal(err)
			}
			return New(disk).Execute(p, Options{Budget: b, Pool: workers})
		}
		full, err := cold(join, nil)
		if err != nil {
			t.Fatal(err)
		}
		for limit := int64(1); limit <= full.Work+1; limit += max(1, full.Work/512) {
			label, b := fmt.Sprintf("HashJoin under MaxWork %d of %d", limit, full.Work), &Budget{MaxWork: limit}
			rs, errS := cold(join, b)
			rp, errP := cold(forcePartitions(join, 3), b)
			assertIdentical(t, label, rs, errS, rp, errP)
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%s: %d pages still pinned", label, n)
			}
		}
	})
}

// TestDiskScanReadsOnlyPagesItServes: a disk SeqScan whose zone maps pass
// pages 5 to 11 of a table of 30 reads those pages alone, one run from a cold
// pool; with pages 8 and 9 resident they are hits, and two runs read the
// rest. Pages read equal misses, serially and partitioned alike, and the pool
// holds what it held before.
func TestDiskScanReadsOnlyPagesItServes(t *testing.T) {
	fact := foldTable(t, "fact", 30*storage.SlotsPerPage(3), 3, 7)
	pool, hf := spill(t, fact, 2), fact.Disk.File()
	spp := int64(hf.SlotsPerPage())
	cat := catalog.NewCatalog()
	scan := scanNode(cat.MustAdd(fact), expr.Pred{Col: 0, Op: expr.BETWEEN, Lo: 5 * spp, Hi: 12*spp - 1})
	workers := mlmath.NewPool(3)
	defer workers.Close()
	for _, tc := range []struct {
		resident                   []int
		hits, misses, reads, pages int64
	}{
		{nil, 0, 7, 1, 7},
		{[]int{8, 9}, 2, 5, 2, 5},
	} {
		if err := pool.ReleaseFile(hf); err != nil {
			t.Fatal(err)
		}
		for _, pno := range tc.resident {
			h, err := pool.Fetch(hf, pno)
			if err != nil {
				t.Fatal(err)
			}
			h.Unpin()
		}
		for _, p := range []*plan.Node{scan, forcePartitions(scan, 3)} {
			before := pool.Stats()
			res, err := New(cat).Execute(p, Options{Pool: workers})
			if err != nil {
				t.Fatal(err)
			}
			st, a := pool.Stats(), res.Actuals[0]
			hits, misses, reads, pages := st.Hits-before.Hits, st.Misses-before.Misses, st.Reads-before.Reads, st.PagesRead-before.PagesRead
			if len(res.Rows) != int(7*spp) || a.PagesSkipped != 23 || a.PageMisses != tc.misses || hits != tc.hits || misses != tc.misses || pages != tc.pages || st.Resident != before.Resident {
				t.Fatalf("P=%d, resident %v: %d rows, %+v; pool %d hits, %d misses, %d pages read, %d resident of %d", p.Partitions, tc.resident, len(res.Rows), a, hits, misses, pages, st.Resident, before.Resident)
			}
			if p.Partitions <= 1 && reads != tc.reads {
				t.Fatalf("resident %v: %d reads, want %d", tc.resident, reads, tc.reads)
			}
		}
	}
}

// TestExplainPrintsPagesSkippedOnDiskScans: a hash join hands its build keys'
// range [0, 4] to its probe side, a SeqScan of a spilled table whose c0 is the
// row number, which reads the first page only. EXPLAIN ANALYZE prints the
// pages it skipped, and prints none for the in-memory build scan.
func TestExplainPrintsPagesSkippedOnDiskScans(t *testing.T) {
	cat := catalog.NewCatalog()
	fact, dim := foldTable(t, "fact", 1000, 3, 7), foldTable(t, "dim", 5, 2, 5)
	pool := spill(t, fact, 2)
	pages := fact.Disk.NumPages()
	fid, did := cat.MustAdd(fact), cat.MustAdd(dim)
	join := plan.NewJoin(plan.OpHashJoin, plan.NewScan(1, did, nil), plan.NewScan(0, fid, nil), on(1, 0, 0, 0))
	res, err := New(cat).Execute(join, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if a := res.Actuals[2]; len(res.Rows) != 5 || a.PagesSkipped != int64(pages-1) || a.PageMisses != 1 || a.Rows != 5 {
		t.Fatalf("%d rows; probe scan %+v, want %d pages skipped of %d", len(res.Rows), a, pages-1, pages)
	}
	lines := strings.Split(strings.TrimSpace(res.Explain.String()), "\n")
	if len(lines) != 3 || strings.Contains(lines[1], "skipped=") || !strings.HasSuffix(lines[2], fmt.Sprintf(" skipped=%d", pages-1)) {
		t.Fatalf("EXPLAIN ANALYZE:\n%s", res.Explain)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pages still pinned", n)
	}
}
