package optimizer

import (
	"path/filepath"
	"testing"

	"ml4db/internal/sqlkit/catalog"
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
	if got := o.PlanCostActual(n, []plan.Actual{{Rows: 500, PageMisses: 3}}); got != want {
		t.Fatalf("PlanCostActual = %v, want %v", got, want)
	}
}
