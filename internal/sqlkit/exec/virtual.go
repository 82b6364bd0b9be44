package exec

import (
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/plan"
)

// seqScanVirtual scans a virtual (system) table: the provider materializes a
// snapshot of its current rows, and the scan filters them exactly like an
// in-memory SeqScan, charging one ScanTuples unit per provider row and
// keeping the marked columns of each matching one.
func (s *execState) seqScanVirtual(n *plan.Node, t *catalog.Table, need []bool) (batch, error) {
	out := batch{cols: make([]column, len(need))}
	for _, row := range t.Virtual.VirtualRows() {
		if err := s.charge(&s.ctr.ScanTuples, 1); err != nil {
			return batch{}, err
		}
		if !rowPasses(n.Filters, row) {
			continue
		}
		if err := s.chargeRows(1); err != nil {
			return batch{}, err
		}
		out.appendRow(row, need)
	}
	return out, nil
}
