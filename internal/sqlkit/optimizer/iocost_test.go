package optimizer

import (
	"path/filepath"
	"testing"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

func diskCatalog(t *testing.T, nrows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.NewCatalog()
	tb := catalog.NewTable("t", "a", "b")
	for r := 0; r < nrows; r++ {
		if err := tb.AppendRow([]int64{int64(r), int64(r % 11)}); err != nil {
			t.Fatal(err)
		}
	}
	catalog.AnalyzeTable(tb, 16, 64)
	pool := storage.NewPool(storage.PoolOptions{Capacity: 4})
	if err := tb.SpillToDisk(filepath.Join(t.TempDir(), "t.tbl"), pool); err != nil {
		t.Fatal(err)
	}
	cat.MustAdd(tb)
	return cat
}

func TestScanCostIncludesIOForDiskTables(t *testing.T) {
	cat := diskCatalog(t, 2000)
	pages := float64(cat.Table(0).NumDiskPages())
	if pages == 0 {
		t.Fatal("table has no disk pages")
	}
	o := New(cat)
	o.Cost = TrueCostParams()
	q := plan.NewQuery(0)

	// The optimizer costs every plan for a cold pool: each page read misses.
	p, err := o.Plan(q, HintSet{})
	if err != nil {
		t.Fatal(err)
	}
	wantCold := o.Cost.ScanCost(2000) + 1*pages
	if p.EstCost != wantCold {
		t.Fatalf("cold EstCost = %v, want %v", p.EstCost, wantCold)
	}

	// Annotate applies the same term to externally built plans.
	n := plan.NewScan(0, 0, nil)
	if got := o.Annotate(q, n); got != wantCold {
		t.Fatalf("Annotate = %v, want %v", got, wantCold)
	}
}

func TestPlanCostActualUsesRecordedMisses(t *testing.T) {
	cat := diskCatalog(t, 500)
	o := New(cat)
	o.Cost = TrueCostParams()
	n := plan.NewScan(0, 0, nil)
	want := o.Cost.ScanCost(500) + 3
	if got := o.PlanCostActual(n, []plan.Actual{{Rows: 500, Fetched: 500, PageMisses: 3}}); got != want {
		t.Fatalf("PlanCostActual = %v, want %v", got, want)
	}
}

// TestPlanCostActualExactWhereScansSkipPages: a hash join hands its build
// keys' range to its probe side, a SeqScan of a spilled table, which skips
// the pages whose zone maps miss it. With true params the formula cost of
// the execution's actuals is its work, exactly: the leaf term counts the rows
// the scan read, not the table's.
func TestPlanCostActualExactWhereScansSkipPages(t *testing.T) {
	cat := diskCatalog(t, 2000) // a = row number: each page holds a range of a
	dim := catalog.NewTable("dim", "id")
	for id := int64(1500); id < 1510; id++ {
		if err := dim.AppendRow([]int64{id}); err != nil {
			t.Fatal(err)
		}
	}
	did := cat.MustAdd(dim)
	o := New(cat)
	o.Cost = TrueCostParams()
	join := plan.NewJoin(plan.OpHashJoin, plan.NewScan(1, did, nil), plan.NewScan(0, 0, nil),
		expr.JoinCond{LeftTable: 1, LeftCol: 0, RightTable: 0, RightCol: 0})
	res, err := exec.New(cat).Execute(join, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if probe := res.Actuals[2]; len(res.Rows) != 10 || probe.PagesSkipped == 0 || probe.Fetched >= 2000 {
		t.Fatalf("%d rows; the probe scan's record %+v: want 10 rows and a page skipped", len(res.Rows), probe)
	}
	if got := o.PlanCostActual(join, res.Actuals); got != float64(res.Work) {
		t.Fatalf("PlanCostActual = %v, want the execution's work %d", got, res.Work)
	}
}
