package exec

import "ml4db/internal/sqlkit/catalog"

// tableData returns the columns an in-memory SeqScan reads and their row
// count. A virtual (system) table's provider materializes a snapshot of its
// current rows, transposed here into fresh columns, so the scan charges and
// filters it exactly like a stored table.
func tableData(t *catalog.Table) (data [][]int64, rows int) {
	if t.Virtual == nil {
		return t.Data, t.NumRows()
	}
	snap := t.Virtual.VirtualRows()
	data = make([][]int64, t.NumCols())
	for c := range data {
		data[c] = make([]int64, len(snap))
		for r, row := range snap {
			data[c][r] = row[c]
		}
	}
	return data, len(snap)
}
