package exec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"regexp"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

func TestBudgetRowLimitAborts(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	// The join materializes 4+4 scan rows plus 5 join rows; a row budget of 6
	// must trip partway through.
	_, err := e.Execute(joinPlanOver(plan.OpHashJoin), Options{Budget: &Budget{MaxRows: 6}})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExceededError", err)
	}
	if be.Kind != "rows" {
		t.Errorf("Kind = %q, want \"rows\"", be.Kind)
	}
	if be.Limit != 6 || be.Used != 7 {
		t.Errorf("Limit/Used = %d/%d, want 6/7", be.Limit, be.Used)
	}
	// The typed error still matches the legacy sentinel.
	if !errors.Is(err, ErrWorkBudgetExceeded) {
		t.Errorf("errors.Is(err, ErrWorkBudgetExceeded) = false, want true")
	}
}

func TestBudgetWorkLimitCarriesDetail(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	_, err := e.Execute(joinPlanOver(plan.OpNLJoin), Options{Budget: &Budget{MaxWork: 3}})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetExceededError", err)
	}
	if be.Kind != "work" {
		t.Errorf("Kind = %q, want \"work\"", be.Kind)
	}
	if be.Limit != 3 || be.Used != 4 {
		t.Errorf("Limit/Used = %d/%d, want 3/4 (abort on the first unit past the limit)", be.Limit, be.Used)
	}
}

func TestBudgetAbortIsDeterministic(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	// A budget abort must consume exactly the same work on every replay —
	// budgets count work units and rows, never wall time.
	var works []int64
	for i := 0; i < 3; i++ {
		res, err := e.Execute(joinPlanOver(plan.OpNLJoin), Options{Budget: &Budget{MaxWork: 11}})
		if !errors.Is(err, ErrWorkBudgetExceeded) {
			t.Fatalf("run %d: err = %v, want budget abort", i, err)
		}
		works = append(works, res.Work)
	}
	if works[0] != works[1] || works[1] != works[2] {
		t.Errorf("abort points differ across replays: %v", works)
	}
}

func TestBudgetZeroMeansUnlimited(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	res, err := e.Execute(joinPlanOver(plan.OpHashJoin), Options{Budget: &Budget{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != expectedJoinRows {
		t.Errorf("rows = %d, want %d", len(res.Rows), expectedJoinRows)
	}
}

// chunkBoundaries returns where the chunks of an in-memory loop over rows
// input rows start and end, serial and over three shards: 1 024-row chunks
// from each shard's start.
func chunkBoundaries(rows int) []int {
	var bs []int
	for _, parts := range []int{1, 3} {
		for k := 0; k < parts; k++ {
			lo, hi := mlmath.ShardRange(rows, parts, k)
			for b := lo; b < hi; b += chunkRows {
				bs = append(bs, b)
			}
			bs = append(bs, hi)
		}
	}
	return bs
}

// chargeModel is the oracle for the chunked operators' charges: the
// row-at-a-time order a scan or a hash join must charge in, one event per
// unit — 'm' a page miss, 's' a tuple scanned, 'b' a tuple built, 'p' a tuple
// probed, 'o' a join output, 'n' an (outer, inner) pair of a nested-loop join,
// 'i' an index probe step (a run of them is one charge), 'f' a row fetched
// through an index, 'r' a row (kept or output) — and 'x', no unit, a page the
// zone maps skip.
// It is built from the tables themselves (in-memory columns, or heap pages
// read through Used and Value), not from the executor, so a mistake shared by
// the serial and the partitioned operator, or by both storage modes, shows
// here.
type chargeModel []byte

// passes is the model's own filter: whether the row whose column c value
// returns satisfies every filter.
func passes(filters []expr.Pred, value func(c int) int64) bool {
	for _, f := range filters {
		if !f.Eval(value(f.Col)) {
			return false
		}
	}
	return true
}

// memModel is the model of a scan of an in-memory table under filters.
func memModel(tbl *catalog.Table, filters []expr.Pred) chargeModel {
	var m chargeModel
	for r := 0; r < tbl.NumRows(); r++ {
		m = append(m, 's')
		if passes(filters, func(c int) int64 { return tbl.Data[c][r] }) {
			m = append(m, 'r')
		}
	}
	return m
}

// skips is the zone maps' model: whether a scan under filters skips a page
// whose rows ever inserted are n, row r's column c value(r, c) — whether some
// interval filter's interval misses its column's [min, max] over them, or is
// empty, or the page had no row.
func skips(filters []expr.Pred, n int, value func(r, c int) int64) bool {
	for _, f := range filters {
		lo, hi, ok := f.Range(math.MinInt64, math.MaxInt64)
		if !ok {
			continue
		}
		zlo, zhi := int64(math.MaxInt64), int64(math.MinInt64)
		for r := range n {
			zlo, zhi = min(zlo, value(r, f.Col)), max(zhi, value(r, f.Col))
		}
		if lo > hi || zlo > zhi || zhi < lo || hi < zlo {
			return true
		}
	}
	return false
}

// diskModel is the model of a cold serial scan under filters of a spilled
// table of inserted rows, some deleted since: each page is skipped if the
// rows ever inserted into it say so (skips), or misses, then its live slots
// scan in slot order.
func diskModel(t *testing.T, tbl *catalog.Table, inserted int, filters []expr.Pred) chargeModel {
	var m chargeModel
	hf := tbl.Disk.File()
	spp := hf.SlotsPerPage()
	for pno := 0; pno < hf.NumPages(); pno++ {
		p, err := hf.ReadPage(pno)
		if err != nil {
			t.Fatal(err)
		}
		if skips(filters, min(spp, inserted-pno*spp), p.Value) { // a deleted slot keeps its values
			m = append(m, 'x')
			continue
		}
		m = append(m, 'm')
		for slot := 0; slot < p.NumSlots(); slot++ {
			if p.Used(slot) {
				m = append(m, 's')
				if passes(filters, func(c int) int64 { return p.Value(slot, c) }) {
					m = append(m, 'r')
				}
			}
		}
	}
	return m
}

// indexModel is the model of an IndexScan whose index holds size entries and
// matches ids, under a residual: the probe's ProbeSteps units as one charge,
// then per row id a fetch unit, a miss if the row's page is cold, and a row if
// the row is live and passes the residual. read says, for a row id, whether
// its page is cold, whether the row is live, and its values.
func indexModel(size int, ids []int32, residual []expr.Pred, read func(id int32) (cold, live bool, value func(c int) int64)) chargeModel {
	m := bytes.Repeat([]byte{'i'}, int(plan.ProbeSteps(size)))
	for _, id := range ids {
		m = append(m, 'f')
		cold, live, value := read(id)
		if cold {
			m = append(m, 'm')
		}
		if live && passes(residual, value) {
			m = append(m, 'r')
		}
	}
	return m
}

// run charges the events one unit at a time against b, as acct does — a run
// of index probe steps at once — and returns the abort (nil if none), the
// work and the counters an execution under b must report.
func (m chargeModel) run(b Budget) (abort *BudgetExceededError, work int64, ctr Counters) {
	var rows int64
	for i, ev := range m {
		switch ev {
		case 'i':
			ctr.IndexProbe++
			work++
			if i+1 < len(m) && m[i+1] == 'i' {
				continue // not the probe's last step: no limit test yet
			}
		case 'f':
			ctr.IndexFetch++
			work++
		case 'm':
			ctr.PageMiss++
			work++
		case 's':
			ctr.ScanTuples++
			work++
		case 'b':
			ctr.HashBuild++
			work++
		case 'p':
			ctr.HashProbe++
			work++
		case 'o':
			ctr.OutputTuple++
			work++
		case 'n':
			ctr.NLPairs++
			work++
		case 'r':
			rows++
		}
		if b.MaxWork > 0 && work > b.MaxWork {
			return &BudgetExceededError{Kind: "work", Limit: b.MaxWork, Used: work}, work, ctr
		}
		if b.MaxRows > 0 && rows > b.MaxRows {
			return &BudgetExceededError{Kind: "rows", Limit: b.MaxRows, Used: rows}, work, ctr
		}
	}
	return nil, work, ctr
}

// skipped is the PagesSkipped a SeqScan under b records: the model's skipped
// pages before its abort.
func (m chargeModel) skipped(b Budget) (n int64) {
	for i, ev := range m {
		if abort, _, _ := m[:i].run(b); ev == 'x' && abort == nil {
			n++
		}
	}
	return n
}

// fetched is the Fetched an IndexScan under b records: every fetch the model
// charges, less one whose own charge aborts the scan.
func (m chargeModel) fetched(b Budget) int64 {
	abort, work, ctr := m.run(b)
	if abort != nil && abort.Kind == "work" {
		for _, ev := range m {
			if ev == 'r' {
				continue
			}
			if work--; work == 0 {
				if ev == 'f' {
					return ctr.IndexFetch - 1
				}
				break
			}
		}
	}
	return ctr.IndexFetch
}

// after returns the work and rows charged before the model's (n+1)-th event
// of kind ev — after the first n tuples scanned ('s') or probed ('p') and the
// rows they produce: the state at a chunk boundary.
func (m chargeModel) after(ev byte, n int) (work, rows int64) {
	for _, e := range m {
		if e == ev {
			if n == 0 {
				break
			}
			n--
		}
		if e == 'r' {
			rows++
		} else {
			work++
		}
	}
	return work, rows
}

// checkModel fails unless an execution under b reported what the model says:
// the same abort (Kind, Limit, Used) or none, and the same Work and Counters;
// a completed one returns one row per 'r' of a scan, per 'o' of a hash join,
// per 'r' after the first 'n' of a nested-loop join.
func checkModel(t *testing.T, label string, m chargeModel, b Budget, res *Result, err error) {
	t.Helper()
	abort, work, ctr := m.run(b)
	out := bytes.Count(m, []byte{'r'})
	if bytes.IndexByte(m, 'p') >= 0 {
		out = bytes.Count(m, []byte{'o'})
	} else if n := bytes.IndexByte(m, 'n'); n >= 0 {
		out = bytes.Count(m[n:], []byte{'r'})
	}
	var be *BudgetExceededError
	switch {
	case abort == nil && err != nil:
		t.Fatalf("%s under %+v: %v, the model completes", label, b, err)
	case abort != nil && (!errors.As(err, &be) || *be != *abort):
		t.Fatalf("%s under %+v: err = %v, the model aborts with %+v", label, b, err, *abort)
	case abort == nil && len(res.Rows) != out:
		t.Fatalf("%s: %d rows, the model returns %d", label, len(res.Rows), out)
	}
	if res.Work != work || res.Counters != ctr {
		t.Fatalf("%s under %+v: work %d, counters %+v; the model charges %d, %+v", label, b, res.Work, res.Counters, work, ctr)
	}
}

// TestScanChargesMatchRowAtATimeModel holds SeqScan's chunk kernel — bulk
// charges, replayed a unit at a time only in the chunk where a limit trips —
// to the row-at-a-time model, serial and partitioned alike.
//
// On disk: every work and every row limit over a spilled table of ten-slot
// pages (the bitmap's last byte is partial) whose last page is partly
// filled, with deleted slots, with a page the zone maps skip and with one
// they let through whose rows the filters all reject. In memory:
// a 2 500-row table, filtered and unfiltered, at every chunk boundary ±1 —
// 1 024-row chunks, from each shard's start — in work and in rows. A scan
// records the rows it read and the pages it skipped, aborted or not.
//
// IndexScan, at every work and every row limit: in memory over the 2 500-row
// table's scattered c2, on disk over a copy of the spilled table indexed
// before its deletes, behind a pool that holds every page and is released
// before each run, so a page misses on its first fetch only. Both carry a
// residual, and an aborted scan keeps the fetches and misses it charged on
// its record.
func TestScanChargesMatchRowAtATimeModel(t *testing.T) {
	cat := catalog.NewCatalog()
	wide := foldTable(t, "wide", 57, 50, 3) // c0 = row, c1 = row % 3
	for r := 20; r < 30; r++ {
		wide.Data[2][r] = 1 // c2 marks page 2
	}
	for r := 40; r < 50; r++ {
		wide.Data[2][r] = int64(r%2*2 - 1) // page 4's c2 spans [-1, 1] and is never 0
	}
	inserted := wide.NumRows()
	diskPool := spill(t, wide, 2)
	if spp := wide.Disk.File().SlotsPerPage(); spp != 10 || wide.Disk.NumPages() != 6 {
		t.Fatalf("wide table: %d slots per page, %d pages; want 10 and 6", spp, wide.Disk.NumPages())
	}
	for _, r := range []int64{3, 15, 16, 41, 55} {
		if ok, err := wide.Disk.DeleteRow(r); !ok || err != nil {
			t.Fatalf("deleting row %d: %v, %v", r, ok, err)
		}
	}
	disk := cat.MustAdd(wide)
	big := foldTable(t, "big", 2500, 3, 7) // c0 = row, c1 = row % 7
	for r := range big.Data[2] {
		big.Data[2][r] = int64(r * 7919 % 1000)
	}
	mem := cat.MustAdd(big)

	workers := mlmath.NewPool(2)
	defer workers.Close()
	e := New(cat)
	run := func(label string, scan *plan.Node, m chargeModel, b Budget) {
		for _, p := range []*plan.Node{scan, forcePartitions(scan, 3)} {
			if err := diskPool.ReleaseFile(wide.Disk.File()); err != nil { // cold: every page misses
				t.Fatal(err)
			}
			res, err := e.Execute(p, Options{Budget: &b, Pool: workers, Output: CountOnly})
			checkModel(t, fmt.Sprintf("%s/P=%d", label, p.Partitions), m, b, res, err)
			if a := res.Actuals[0]; a.Fetched != res.Counters.ScanTuples || a.PagesSkipped != m.skipped(b) {
				t.Fatalf("%s/P=%d under %+v: Actuals %+v with counters %+v; the model skips %d pages", label, p.Partitions, b, a, res.Counters, m.skipped(b))
			}
			if n := diskPool.PinnedCount(); n != 0 {
				t.Fatalf("%s: %d pages still pinned", label, n)
			}
		}
	}

	pageTwoOut := []expr.Pred{{Col: 1, Op: expr.NE, Lo: 1}, {Col: 2, Op: expr.EQ, Lo: 0}}
	emptied := regexp.MustCompile("ms+(m|x|$)") // a page read, every row scanned and rejected
	for _, filters := range [][]expr.Pred{nil, pageTwoOut} {
		if err := diskPool.ReleaseFile(wide.Disk.File()); err != nil { // flushes the deletes
			t.Fatal(err)
		}
		m := diskModel(t, wide, inserted, filters)
		work, rows := m.after('s', len(m))
		if x := bytes.Count(m, []byte{'x'}); filters != nil && (x != 1 || m[bytes.IndexByte(m, 'x')+1] != 'm') {
			t.Fatalf("the model skips %d pages, want one between two it reads: %q", x, m)
		}
		if e := len(emptied.FindAll(m, -1)); filters != nil && e != 1 {
			t.Fatalf("the filters empty %d pages the model reads, want one: %q", e, m)
		}
		label := fmt.Sprintf("disk/%d filters", len(filters))
		for limit := int64(1); limit <= work+1; limit++ {
			run(label, plan.NewScan(0, disk, filters), m, Budget{MaxWork: limit})
		}
		for limit := int64(1); limit <= rows+1; limit++ {
			run(label, plan.NewScan(0, disk, filters), m, Budget{MaxRows: limit})
		}
	}

	half := []expr.Pred{{Col: 2, Op: expr.LE, Lo: 499}, {Col: 1, Op: expr.NE, Lo: 3}}
	for _, filters := range [][]expr.Pred{nil, half} {
		m, label := memModel(big, filters), fmt.Sprintf("mem/%d filters", len(filters))
		for _, b := range chunkBoundaries(big.NumRows()) {
			work, rows := m.after('s', b)
			for d := int64(-1); d <= 1; d++ {
				if work+d > 0 {
					run(label, plan.NewScan(0, mem, filters), m, Budget{MaxWork: work + d})
				}
				if rows+d > 0 {
					run(label, plan.NewScan(0, mem, filters), m, Budget{MaxRows: rows + d})
				}
			}
		}
	}

	memIx := catalog.BuildSecondaryIndex(big, 2)
	big.AddIndex(memIx)
	inMem := indexModel(memIx.Len(), memIx.RangeRows(200, 699), half[1:], func(id int32) (bool, bool, func(int) int64) {
		return false, true, func(c int) int64 { return big.Data[c][id] }
	})
	// c1 in [0, 1] fetches the rows ≡ 0 (mod 3), then those ≡ 1: every page
	// twice. Rows 3, 15, 16 and 55 are deleted after the index is built, and
	// c2 = 0 rejects page 2.
	cold := foldTable(t, "cold", 57, 50, 3)
	for r := 20; r < 30; r++ {
		cold.Data[2][r] = 1
	}
	coldPool := spill(t, cold, 8)
	diskIx, err := catalog.BuildSecondaryIndexIO(cold, 1)
	if err != nil {
		t.Fatal(err)
	}
	cold.AddIndex(diskIx)
	for _, r := range []int64{3, 15, 16, 41, 55} {
		if ok, err := cold.Disk.DeleteRow(r); !ok || err != nil {
			t.Fatalf("deleting row %d: %v, %v", r, ok, err)
		}
	}
	hf := cold.Disk.File()
	if err := coldPool.ReleaseFile(hf); err != nil { // flushes the deletes
		t.Fatal(err)
	}
	spp, pages := hf.SlotsPerPage(), map[int]*storage.Page{}
	residual := []expr.Pred{{Col: 2, Op: expr.EQ, Lo: 0}}
	onDisk := indexModel(diskIx.Len(), diskIx.RangeRows(0, 1), residual, func(id int32) (bool, bool, func(int) int64) {
		pno, slot := int(id)/spp, int(id)%spp
		p, warm := pages[pno]
		if !warm {
			if p, err = hf.ReadPage(pno); err != nil {
				t.Fatal(err)
			}
			pages[pno] = p
		}
		return !warm, p.Used(slot), func(c int) int64 { return p.Value(slot, c) }
	})
	if f, m := bytes.Count(onDisk, []byte{'f'}), bytes.Count(onDisk, []byte{'m'}); f != 38 || m != hf.NumPages() {
		t.Fatalf("disk index model: %d fetches and %d misses, want 38 and %d", f, m, hf.NumPages())
	}
	coldID := cat.MustAdd(cold)
	for _, tc := range []struct {
		label string
		scan  *plan.Node
		m     chargeModel
	}{
		{"mem/index", plan.NewIndexScan(0, mem, 2, append([]expr.Pred{{Col: 2, Op: expr.BETWEEN, Lo: 200, Hi: 699}}, half[1:]...)), inMem},
		{"disk/index", plan.NewIndexScan(0, coldID, 1, append([]expr.Pred{{Col: 1, Op: expr.BETWEEN, Lo: 0, Hi: 1}}, residual...)), onDisk},
	} {
		work, rows := tc.m.after('f', len(tc.m))
		var budgets []Budget
		for limit := int64(1); limit <= work+1; limit++ {
			budgets = append(budgets, Budget{MaxWork: limit})
		}
		for limit := int64(1); limit <= rows+1; limit++ {
			budgets = append(budgets, Budget{MaxRows: limit})
		}
		for _, b := range budgets {
			if err := coldPool.ReleaseFile(hf); err != nil {
				t.Fatal(err)
			}
			res, err := e.Execute(tc.scan, Options{Budget: &b, Output: CountOnly})
			checkModel(t, tc.label, tc.m, b, res, err)
			if a := res.Actuals[0]; a.Fetched != tc.m.fetched(b) || a.PageMisses != res.Counters.PageMiss {
				t.Fatalf("%s under %+v: Actuals %+v with counters %+v; the model fetches %d", tc.label, b, a, res.Counters, tc.m.fetched(b))
			}
			if n := coldPool.PinnedCount(); n != 0 {
				t.Fatalf("%s: %d pages still pinned", tc.label, n)
			}
		}
	}
}

// joinModel is the model of a HashJoin on c1 = c1 and c2 = c2, the build
// side on the left: the two scans' model, a build unit per build row, then
// per probe row a probe unit and, for each build row it matches, in build
// order, an output unit and its row. build and probe are the (c1, c2) of the
// rows the scans return (keyRows).
func joinModel(scans chargeModel, build, probe [][2]int64) chargeModel {
	m := append(scans, bytes.Repeat([]byte{'b'}, len(build))...)
	for _, p := range probe {
		m = append(m, 'p')
		for _, b := range build {
			if b == p {
				m = append(m, 'o', 'r')
			}
		}
	}
	return m
}

// keyRows returns the (c1, c2) of tbl's rows that pass filters, in scan
// order: row order in memory, page and slot order on disk.
func keyRows(t *testing.T, tbl *catalog.Table, filters []expr.Pred) [][2]int64 {
	var out [][2]int64
	add := func(value func(c int) int64) {
		if passes(filters, value) {
			out = append(out, [2]int64{value(1), value(2)})
		}
	}
	if tbl.Disk == nil {
		for r := range tbl.NumRows() {
			add(func(c int) int64 { return tbl.Data[c][r] })
		}
		return out
	}
	hf := tbl.Disk.File()
	for pno := range hf.NumPages() {
		p, err := hf.ReadPage(pno)
		if err != nil {
			t.Fatal(err)
		}
		for slot := range p.NumSlots() {
			if p.Used(slot) {
				add(func(c int) int64 { return p.Value(slot, c) })
			}
		}
	}
	return out
}

// TestHashJoinChargesMatchRowAtATimeModel holds HashJoin's one-step build
// charge and chunked probe — bulk charges, replayed a unit at a time only in
// the chunk where a limit trips — to the row-at-a-time model, serial and
// partitioned. The build side has duplicate keys, distinct keys that share a
// slot, and a second condition that rejects some key matches.
//
// In memory, with the build side unfiltered and filtered (its scan returns a
// selection vector): every work limit up to the probe, inside both scans and
// the build, and a 2 500-row probe side at every chunk boundary ±1 (1 024-row
// chunks from each shard's start), in work and in rows. On disk: the probe
// side spilled behind a two-frame pool, released before each run so every
// page it reads misses, at every work and every row limit; the probe scan
// gets the build keys' range as a filter, so the model skips the pages whose
// rows all fall outside it, as diskModel does.
func TestHashJoinChargesMatchRowAtATimeModel(t *testing.T) {
	cat := catalog.NewCatalog()
	build := foldTable(t, "build", 40, 3, 25)
	for r := range build.NumRows() {
		k := build.Data[1][r]
		build.Data[1][r] = k * k % 97 // 25 distinct keys below 97: rows r and r+25 share one
		build.Data[2][r] = int64(r % 2)
	}
	probe := foldTable(t, "probe", 2500, 3, 100) // keys 0…99: a quarter match
	for r := range probe.NumRows() {
		probe.Data[2][r] = int64(r % 3)
	}
	far := foldTable(t, "far", 200, 50, 1) // ten rows a page on disk
	for r := range far.NumRows() {
		far.Data[1][r], far.Data[2][r] = int64(r-50), int64(r%3) // keys -50…149: pages 0-4 and 15-19 miss [0, 96]
	}
	farPool := spill(t, far, 2)
	bid, pid, fid := cat.MustAdd(build), cat.MustAdd(probe), cat.MustAdd(far)
	const shift = 64 - 6 // 40 build rows take 64 slots
	keys, slots := map[int64]bool{}, map[uint64]bool{}
	for _, k := range build.Data[1] {
		keys[k], slots[hashOf(k)>>shift] = true, true
	}
	if len(slots) == len(keys) {
		t.Fatal("no two build keys share a slot")
	}

	workers := mlmath.NewPool(2)
	defer workers.Close()
	e := New(cat)
	run := func(label string, join *plan.Node, m chargeModel, b Budget) {
		for _, p := range []*plan.Node{join, forcePartitions(join, 3)} {
			if err := farPool.ReleaseFile(far.Disk.File()); err != nil { // cold: every page read misses
				t.Fatal(err)
			}
			res, err := e.Execute(p, Options{Budget: &b, Pool: workers, Output: CountOnly})
			checkModel(t, fmt.Sprintf("%s/P=%d", label, p.Partitions), m, b, res, err)
			if n := farPool.PinnedCount(); n != 0 {
				t.Fatalf("%s: %d pages still pinned", label, n)
			}
		}
	}

	evens := []expr.Pred{{Col: 2, Op: expr.EQ, Lo: 0}}
	for _, filters := range [][]expr.Pred{nil, evens} {
		label := fmt.Sprintf("hashjoin/%d filters", len(filters))
		join := plan.NewJoin(plan.OpHashJoin, plan.NewScan(0, bid, filters), plan.NewScan(1, pid, nil), on(0, 1, 1, 1), on(0, 2, 1, 2))
		m := joinModel(append(memModel(build, filters), memModel(probe, nil)...), keyRows(t, build, filters), keyRows(t, probe, nil))
		probed, _ := m.after('p', 0)
		for limit := int64(1); limit <= probed+1; limit++ {
			run(label, join, m, Budget{MaxWork: limit})
		}
		for _, b := range chunkBoundaries(probe.NumRows()) {
			work, rows := m.after('p', b)
			for d := int64(-1); d <= 1; d++ {
				run(label, join, m, Budget{MaxWork: work + d})
				run(label, join, m, Budget{MaxRows: rows + d})
			}
		}
	}

	kmin, kmax := int64(math.MaxInt64), int64(math.MinInt64)
	for _, k := range build.Data[1] {
		kmin, kmax = min(kmin, k), max(kmax, k)
	}
	between := []expr.Pred{{Col: 1, Op: expr.BETWEEN, Lo: kmin, Hi: kmax}}
	probeScan := diskModel(t, far, far.Disk.NumRows(), between)
	if x := bytes.Count(probeScan, []byte{'x'}); x != 10 {
		t.Fatalf("the model skips %d probe pages, want 10: %q", x, probeScan)
	}
	join := plan.NewJoin(plan.OpHashJoin, plan.NewScan(0, bid, nil), plan.NewScan(1, fid, nil), on(0, 1, 1, 1), on(0, 2, 1, 2))
	m := joinModel(append(memModel(build, nil), probeScan...), keyRows(t, build, nil), keyRows(t, far, between))
	work, rows := m.after('p', len(m))
	for limit := int64(1); limit <= work+1; limit++ {
		run("hashjoin/disk probe", join, m, Budget{MaxWork: limit})
	}
	for limit := int64(1); limit <= rows+1; limit++ {
		run("hashjoin/disk probe", join, m, Budget{MaxRows: limit})
	}
}

// nlModel is the model of an NLJoin of two unfiltered in-memory scans on
// c1 = c1 and c2 = c2: both scans, then per outer (left) row, per inner row in
// order, a pair unit and, if the two rows match, a row.
func nlModel(outer, inner *catalog.Table) chargeModel {
	m := append(memModel(outer, nil), memModel(inner, nil)...)
	for l := range outer.NumRows() {
		for r := range inner.NumRows() {
			m = append(m, 'n')
			if outer.Data[1][l] == inner.Data[1][r] && outer.Data[2][l] == inner.Data[2][r] {
				m = append(m, 'r')
			}
		}
	}
	return m
}

// TestNLJoinChargesMatchRowAtATimeModel holds NLJoin's one charge per outer
// row — its inner matches found first — to the row-at-a-time model, serial
// and at Partitions = 3 (three outer rows a shard): every work limit and every
// row limit from the first to one past the last charge. The outer side has
// duplicate keys, and a second condition rejects every key match of the outer
// rows whose key is 2 or 3.
func TestNLJoinChargesMatchRowAtATimeModel(t *testing.T) {
	cat := catalog.NewCatalog()
	outer := foldTable(t, "outer", 9, 3, 4) // c1 = r % 4
	for r := range outer.NumRows() {
		outer.Data[2][r] = int64(r % 2)
	}
	inner := foldTable(t, "inner", 50, 3, 6) // c1 = r % 6
	for r := range inner.NumRows() {
		inner.Data[2][r] = int64(r % 3)
	}
	oid, iid := cat.MustAdd(outer), cat.MustAdd(inner)

	workers := mlmath.NewPool(2)
	defer workers.Close()
	e := New(cat)
	join := plan.NewJoin(plan.OpNLJoin, plan.NewScan(0, oid, nil), plan.NewScan(1, iid, nil), on(0, 1, 1, 1), on(0, 2, 1, 2))
	m := nlModel(outer, inner)
	if bytes.Count(m[bytes.IndexByte(m, 'n'):], []byte{'r'}) == 0 {
		t.Fatal("the join returns no row")
	}
	work, rows := m.after('n', len(m))
	var budgets []Budget
	for limit := int64(1); limit <= work+1; limit++ {
		budgets = append(budgets, Budget{MaxWork: limit})
	}
	for limit := int64(1); limit <= rows+1; limit++ {
		budgets = append(budgets, Budget{MaxRows: limit})
	}
	for _, b := range budgets {
		for _, p := range []*plan.Node{join, forcePartitions(join, 3)} {
			res, err := e.Execute(p, Options{Budget: &b, Pool: workers, Output: CountOnly})
			checkModel(t, fmt.Sprintf("nljoin/P=%d", p.Partitions), m, b, res, err)
		}
	}
}
