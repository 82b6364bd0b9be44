package catalog

import (
	"fmt"
	"sort"

	"ml4db/internal/storage"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	// Stats are computed by AnalyzeTable and may be nil before analysis.
	Stats *ColumnStats
}

// VirtualSource produces the rows of a virtual (system) table on demand.
// The executor snapshots VirtualRows at scan time, so a virtual table always
// reflects the provider's current state; implementations must return fresh
// row slices the executor may retain, in a deterministic order.
type VirtualSource interface {
	// VirtualNumRows returns the current row count (the optimizer's input).
	VirtualNumRows() int
	// VirtualRows materializes the current rows, one fresh slice per row.
	VirtualRows() [][]int64
}

// Table is a column-major relation. Rows live in the in-memory Data arrays,
// in a disk heap file read through a buffer pool after SpillToDisk (see
// disk.go), or — for system views — are produced on demand by a
// VirtualSource; exactly one backing is active at a time.
type Table struct {
	Name    string
	Columns []Column
	// Data[c][r] is the value of column c in row r (nil when disk-backed or
	// virtual).
	Data [][]int64
	// Disk, when non-nil, is the heap file backing the table's rows.
	Disk *storage.TableFile
	// Virtual, when non-nil, produces the table's rows on demand (read-only:
	// AppendRow refuses virtual tables).
	Virtual VirtualSource
	// indexes holds secondary indexes by column (see secondary.go).
	indexes map[int]*SecondaryIndex
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if t.Virtual != nil {
		return t.Virtual.VirtualNumRows()
	}
	if t.Disk != nil {
		return t.Disk.NumRows()
	}
	if len(t.Data) == 0 {
		return 0
	}
	return len(t.Data[0])
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Columns) }

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// AppendRow adds one row; vals must have one entry per column.
func (t *Table) AppendRow(vals []int64) error {
	if t.Virtual != nil {
		return fmt.Errorf("catalog: %s is a virtual table (read-only)", t.Name)
	}
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("catalog: row width %d != %d columns of %s", len(vals), len(t.Columns), t.Name)
	}
	if t.Disk != nil {
		_, err := t.Disk.AppendRow(vals)
		return err
	}
	for c, v := range vals {
		t.Data[c] = append(t.Data[c], v)
	}
	return nil
}

// NewTable constructs an empty table with the given column names.
func NewTable(name string, colNames ...string) *Table {
	t := &Table{Name: name}
	for _, cn := range colNames {
		t.Columns = append(t.Columns, Column{Name: cn})
	}
	t.Data = make([][]int64, len(colNames))
	return t
}

// Catalog is a named collection of tables — the database.
type Catalog struct {
	Tables []*Table
	byName map[string]int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]int)}
}

// Add registers a table and returns its ID. Adding a duplicate name is an
// error.
func (c *Catalog) Add(t *Table) (int, error) {
	if _, dup := c.byName[t.Name]; dup {
		return 0, fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	id := len(c.Tables)
	c.Tables = append(c.Tables, t)
	c.byName[t.Name] = id
	return id, nil
}

// DropLast removes the table with the given ID, which must be the most
// recently added one — the narrow removal what-if probes need: a transient
// hypothetical table can be added, costed against, and removed again while
// every other table keeps its ID. The caller must ensure no live plan or
// view references the table.
func (c *Catalog) DropLast(id int) error {
	if id != len(c.Tables)-1 {
		return fmt.Errorf("catalog: DropLast(%d): only the last table (%d) can be dropped", id, len(c.Tables)-1)
	}
	delete(c.byName, c.Tables[id].Name)
	c.Tables = c.Tables[:id]
	return nil
}

// MustAdd is Add for construction-time code where duplicates are bugs.
func (c *Catalog) MustAdd(t *Table) int {
	id, err := c.Add(t)
	if err != nil {
		//ml4db:allow nakedpanic "Must variant for construction-time code; Add is the error-returning API"
		panic(err)
	}
	return id
}

// RegisterVirtual claims name in cat as a virtual read-only table with the
// given columns, served from src. Registration is idempotent per catalog: a
// table of that name that is already virtual is rebound to src; a
// non-virtual table squatting on the name is an error.
func RegisterVirtual(cat *Catalog, name string, cols []string, src VirtualSource) error {
	if id, ok := cat.ByName(name); ok {
		t := cat.Table(id)
		if t.Virtual == nil {
			return fmt.Errorf("catalog: table %q exists and is not a virtual view", name)
		}
		t.Virtual = src
		return nil
	}
	t := NewTable(name, cols...)
	t.Data = nil
	t.Virtual = src
	_, err := cat.Add(t)
	return err
}

// Table returns the table with the given ID.
func (c *Catalog) Table(id int) *Table { return c.Tables[id] }

// ByName returns the table ID for name.
func (c *Catalog) ByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// AnalyzeAll computes statistics for every column of every table, like a
// database-wide ANALYZE.
func (c *Catalog) AnalyzeAll(buckets, sampleSize int) {
	for _, t := range c.Tables {
		AnalyzeTable(t, buckets, sampleSize)
	}
}

// AnalyzeTable computes per-column statistics for one table. Disk-backed
// tables are skipped: their stats were computed before the spill. Virtual
// tables are skipped too: their rows change under the provider, so the planner
// estimates them from row counts and default selectivities.
func AnalyzeTable(t *Table, buckets, sampleSize int) {
	if t.Disk != nil || t.Virtual != nil {
		return
	}
	for i := range t.Columns {
		t.Columns[i].Stats = BuildStats(t.Data[i], buckets, sampleSize)
	}
}

// ColumnStats summarizes a column's value distribution, mirroring the
// statistics a classical optimizer keeps (and that ML4DB systems consume as
// "database statistics" features, §3.1).
type ColumnStats struct {
	Count    int
	Min, Max int64
	// Distinct is an exact distinct count (tables are in memory).
	Distinct int
	// Hist is an equi-depth histogram over the column.
	Hist *Histogram
	// Sample is a deterministic systematic sample of column values.
	Sample []int64
}

// BuildStats computes statistics over the values.
func BuildStats(vals []int64, buckets, sampleSize int) *ColumnStats {
	s := &ColumnStats{Count: len(vals)}
	if len(vals) == 0 {
		s.Hist = &Histogram{}
		return s
	}
	sorted := make([]int64, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	s.Distinct = distinct
	s.Hist = BuildHistogram(sorted, buckets)
	if sampleSize > 0 {
		if sampleSize > len(vals) {
			sampleSize = len(vals)
		}
		step := len(vals) / sampleSize
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(vals) && len(s.Sample) < sampleSize; i += step {
			s.Sample = append(s.Sample, vals[i])
		}
	}
	return s
}

// SelectivityEq estimates the fraction of rows equal to v using the uniform
// frequency assumption within the histogram bucket containing v.
func (s *ColumnStats) SelectivityEq(v int64) float64 {
	if s.Count == 0 || v < s.Min || v > s.Max {
		return 0
	}
	if s.Distinct <= 0 {
		return 0
	}
	// The histogram is built over the full column, so a value falling in a
	// gap between bucket extents provably matches no row.
	if len(s.Hist.Bounds) > 0 && !s.Hist.Covers(v) {
		return 0
	}
	// Classical assumption: each distinct value is equally frequent within
	// its bucket; approximate globally by 1/distinct weighted by the
	// bucket's share of rows.
	frac := s.Hist.FracInBucketOf(v)
	perValue := frac / maxf(1, s.Hist.DistinctInBucketOf(v))
	if perValue <= 0 {
		return 1 / float64(s.Distinct)
	}
	return perValue
}

// SelectivityRange estimates the fraction of rows with lo ≤ value ≤ hi.
func (s *ColumnStats) SelectivityRange(lo, hi int64) float64 {
	if s.Count == 0 || hi < lo {
		return 0
	}
	return s.Hist.FracRange(lo, hi)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
