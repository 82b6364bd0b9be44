package catalog

import (
	"path/filepath"
	"reflect"
	"testing"

	"ml4db/internal/storage"
)

func spilledTable(t *testing.T, nrows int) (*Table, *storage.Pool) {
	t.Helper()
	tb := NewTable("t", "a", "b")
	for r := 0; r < nrows; r++ {
		if err := tb.AppendRow([]int64{int64(r), int64(r % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	pool := storage.NewPool(storage.PoolOptions{Capacity: 4})
	if err := tb.SpillToDisk(filepath.Join(t.TempDir(), "t.tbl"), pool); err != nil {
		t.Fatal(err)
	}
	return tb, pool
}

func TestSpillToDiskPreservesRows(t *testing.T) {
	tb, _ := spilledTable(t, 1000)
	if !tb.IsDisk() || tb.Data != nil {
		t.Fatalf("spill left in-memory backing: disk=%v data=%v", tb.IsDisk(), tb.Data != nil)
	}
	if tb.NumRows() != 1000 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if tb.NumDiskPages() == 0 {
		t.Fatal("no disk pages after spill")
	}
	next := int64(0)
	err := tb.Disk.Scan(func(rowID int64, row []int64) error {
		if rowID != next || row[0] != next {
			t.Fatalf("row %d: rowid %d, column a = %d", next, rowID, row[0])
		}
		next++
		return nil
	})
	if err != nil || next != 1000 {
		t.Fatalf("scan of the spilled table: %d rows, %v", next, err)
	}
	// Appends keep going to disk.
	if err := tb.AppendRow([]int64{1000, 3}); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1001 {
		t.Fatalf("NumRows after append = %d", tb.NumRows())
	}
	// A second spill is rejected.
	if err := tb.SpillToDisk("x", nil); err == nil {
		t.Fatal("double spill succeeded")
	}
}

func TestAnalyzeTableSkipsDisk(t *testing.T) {
	tb, _ := spilledTable(t, 500)
	AnalyzeTable(tb, 8, 32) // must be a no-op, not a panic
	if tb.Columns[0].Stats != nil {
		t.Fatal("AnalyzeTable analyzed a disk table")
	}
}

func TestBuildSecondaryIndexIOOnDisk(t *testing.T) {
	tb, _ := spilledTable(t, 300)
	ix, err := BuildSecondaryIndexIO(tb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 300 {
		t.Fatalf("index len = %d", ix.Len())
	}
	// Build the same index from an in-memory twin and compare.
	twin := NewTable("twin", "a", "b")
	for r := 0; r < 300; r++ {
		if err := twin.AppendRow([]int64{int64(r), int64(r % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	want := BuildSecondaryIndex(twin, 1)
	if !reflect.DeepEqual(ix.RangeRows(2, 3), want.RangeRows(2, 3)) {
		t.Fatalf("disk index diverges from in-memory index")
	}
}
