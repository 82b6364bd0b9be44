package exec

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// The fold/re-run half of the exchange contract (exchange.go): wherever a
// budget lands inside a partitioned operator, the coordinator must stop on
// the charge the serial execution stops on. The stripped plan is the oracle
// here: with Partitions = 0 the loop body runs once against the live account
// and no fold, private account or re-run is involved.

// foldTable builds a table whose column 0 is the row number, column 1 is
// row % mod, and the remaining columns pad the row so that few rows fit a
// heap page.
func foldTable(t *testing.T, name string, rows, cols, mod int) *catalog.Table {
	t.Helper()
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	tbl := catalog.NewTable(name, names...)
	for r := 0; r < rows; r++ {
		row := make([]int64, cols)
		row[0], row[1] = int64(r), int64(r%mod)
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestBudgetAbortIdenticalAtEveryCharge sweeps every work limit and every row
// limit from 1 up to the first that no longer aborts, for each partitionable
// operator at Partitions = 4. The sweep lands on the first, every middle and
// the last charge of every shard, and on every shard's exact fit (Used ==
// Limit at the shard's last charge, which must fold, not abort). Each run
// must equal the serial run of the stripped plan — error, Work, Counters —
// under a nil pool and 1, 2 and 8 workers, and leave no page pinned.
func TestBudgetAbortIdenticalAtEveryCharge(t *testing.T) {
	cat := catalog.NewCatalog()
	big := cat.MustAdd(foldTable(t, "big", 26, 3, 5))
	small := cat.MustAdd(foldTable(t, "small", 9, 2, 3))
	// 60 columns leave 8 rows to a page: 37 rows are 5 pages, so the four
	// page shards are uneven and the last page is partial.
	wide := foldTable(t, "wide", 37, 60, 4)
	diskPool := spill(t, wide, 2)
	disk := cat.MustAdd(wide)
	if wide.Disk.NumPages() != 5 {
		t.Fatalf("wide table has %d pages, want 5", wide.Disk.NumPages())
	}

	half := []expr.Pred{{Col: 1, Op: expr.LE, Lo: 1}}
	join := func(op plan.OpType) *plan.Node {
		// big.c1 = small.c1: every key matches several rows on both sides.
		return plan.NewJoin(op, plan.NewScan(0, big, nil), plan.NewScan(1, small, nil), on(0, 1, 1, 1))
	}
	cases := []struct {
		name string
		plan *plan.Node
	}{
		{"SeqScan", plan.NewScan(0, big, half)},
		{"SeqScanDisk", plan.NewScan(0, disk, half)},
		{"HashJoin", join(plan.OpHashJoin)},
		{"NLJoin", join(plan.OpNLJoin)},
		{"HashAgg", plan.NewAgg(plan.NewScan(0, big, nil), &plan.AggSpec{GroupCol: 1, Sums: []plan.AggCol{{Col: 0}}})},
	}
	pools := []*mlmath.Pool{nil, mlmath.NewPool(1), mlmath.NewPool(2), mlmath.NewPool(8)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()

	e := New(cat)
	run := func(p *plan.Node, pool *mlmath.Pool, b *Budget) (*Result, error) {
		// Every run starts from a cold pool: an index scan inserts pages, and
		// miss charges depend on what is resident.
		if err := diskPool.ReleaseFile(wide.Disk.File()); err != nil {
			t.Fatal(err)
		}
		res, err := runOnce(t, e, p, pool, b)
		if n := diskPool.PinnedCount(); n != 0 {
			t.Fatalf("%d pages still pinned", n)
		}
		return res, err
	}
	for _, tc := range cases {
		serial, parallel := stripPartitions(tc.plan), forcePartitions(tc.plan, 4)
		full, err := run(serial, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, kind := range []string{"work", "rows"} {
			for limit := int64(1); ; limit++ {
				b := &Budget{MaxWork: limit}
				if kind == "rows" {
					b = &Budget{MaxRows: limit}
				}
				want, wantErr := run(serial, nil, b)
				for _, pool := range pools {
					got, gotErr := run(parallel, pool, b)
					assertIdentical(t, tc.name+"/"+kind, want, wantErr, got, gotErr)
				}
				if wantErr == nil {
					// The first limit that fits is the total (every charge
					// here is one unit), reached with Used == Limit.
					if kind == "work" && limit != full.Work {
						t.Errorf("%s: work limit %d ran to completion, total work is %d", tc.name, limit, full.Work)
					}
					break
				}
				var be *BudgetExceededError
				if !errors.As(wantErr, &be) || be.Kind != kind || be.Limit != limit || be.Used != limit+1 {
					t.Fatalf("%s: %s limit %d aborted with %v", tc.name, kind, limit, wantErr)
				}
			}
		}
	}
}

// TestBudgetAbortBeatsLaterShardIOError truncates the heap file under a
// partitioned disk scan so that shard 2's second page cannot be read. With no
// budget the read error surfaces after exactly the charges the serial scan
// makes before it; with a budget that trips inside shard 1, the budget abort
// wins, as it does in serial order, although shards 2 and 3 failed first in
// wall-clock time.
func TestBudgetAbortBeatsLaterShardIOError(t *testing.T) {
	cat := catalog.NewCatalog()
	wide := foldTable(t, "wide", 64, 60, 4) // 8 pages: shard k scans pages 2k, 2k+1
	pool := spill(t, wide, 2)
	id := cat.MustAdd(wide)
	if wide.Disk.NumPages() != 8 {
		t.Fatalf("wide table has %d pages, want 8", wide.Disk.NumPages())
	}
	if err := pool.ReleaseFile(wide.Disk.File()); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wide.Disk.File().Path(), 5*storage.PageSize); err != nil {
		t.Fatal(err)
	}
	workers := mlmath.NewPool(4)
	defer workers.Close()
	e := New(cat)
	scan := plan.NewScan(0, id, nil)
	run := func(parts int, b *Budget) (*Result, error) {
		if err := pool.ReleaseFile(wide.Disk.File()); err != nil {
			t.Fatal(err)
		}
		res, err := runOnce(t, e, forcePartitions(scan, parts), workers, b)
		if n := pool.PinnedCount(); n != 0 {
			t.Fatalf("%d pages still pinned", n)
		}
		return res, err
	}

	want, wantErr := run(0, nil)
	var ce *storage.ChecksumError
	if !errors.As(wantErr, &ce) || ce.PageNo != 5 {
		t.Fatalf("serial scan of the truncated file: err = %v, want a checksum error on page 5", wantErr)
	}
	if want.Counters.ScanTuples != 40 || want.Counters.PageMiss != 5 {
		t.Fatalf("serial scan charged %+v before the read error, want 40 tuples over 5 pages", want.Counters)
	}
	got, gotErr := run(4, nil)
	assertIdentical(t, "io-error", want, wantErr, got, gotErr)

	// Pages 2 and 3 are shard 1: 16 tuples and 2 misses precede it, so a
	// limit of 25 trips on its seventh tuple.
	b := &Budget{MaxWork: 25}
	want, wantErr = run(0, b)
	var be *BudgetExceededError
	if !errors.As(wantErr, &be) {
		t.Fatalf("serial: err = %v, want the budget abort", wantErr)
	}
	got, gotErr = run(4, b)
	assertIdentical(t, "budget-before-io-error", want, wantErr, got, gotErr)
}
