package catalog

import (
	"fmt"
	"sort"

	"ml4db/internal/storage"
)

// IsDisk reports whether the table's rows live in a disk heap file rather
// than in-memory column arrays.
func (t *Table) IsDisk() bool { return t.Disk != nil }

// NumDiskPages returns the heap-file page count backing the table, or 0 for
// an in-memory table — the quantity the optimizer's I/O cost term scales
// with.
func (t *Table) NumDiskPages() int {
	if t.Disk == nil {
		return 0
	}
	return t.Disk.NumPages()
}

// SpillToDisk moves the table's rows into a heap file at path, cached
// through pool, and drops the in-memory column arrays. Column statistics
// and secondary indexes are kept: stats were computed over the same rows,
// and index row ids remain valid because the spill appends rows in order
// into empty pages (row id == row position).
func (t *Table) SpillToDisk(path string, pool *storage.Pool) error {
	if t.Disk != nil {
		return fmt.Errorf("catalog: table %s is already disk-backed", t.Name)
	}
	tf, err := storage.CreateTableFile(path, len(t.Columns), pool)
	if err != nil {
		return err
	}
	nRows := t.NumRows()
	row := make([]int64, len(t.Columns))
	for r := 0; r < nRows; r++ {
		for c := range row {
			row[c] = t.Data[c][r]
		}
		rowID, err := tf.AppendRow(row)
		if err != nil {
			return err
		}
		if rowID != int64(r) {
			return fmt.Errorf("catalog: spill of %s mapped row %d to rowid %d", t.Name, r, rowID)
		}
	}
	if err := tf.Flush(); err != nil {
		return err
	}
	t.Disk = tf
	t.Data = nil
	return nil
}

// BuildSecondaryIndexIO constructs the index over t's column col for a
// table of either backing; disk tables are scanned through their buffer
// pool, indexing heap row ids.
func BuildSecondaryIndexIO(t *Table, col int) (*SecondaryIndex, error) {
	if t.Disk == nil {
		return BuildSecondaryIndex(t, col), nil
	}
	ix := &SecondaryIndex{Col: col}
	err := t.Disk.Scan(func(rowID int64, row []int64) error {
		if rowID > 1<<31-1 {
			return fmt.Errorf("catalog: row id %d of %s overflows the index's int32 row ids", rowID, t.Name)
		}
		ix.vals = append(ix.vals, row[col])
		ix.rows = append(ix.rows, int32(rowID))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Sort(byVal{ix})
	return ix, nil
}
