package exec

import (
	"fmt"
	"sort"

	"ml4db/internal/sqlkit/plan"
)

// aggCell accumulates one group: COUNT(*) plus one running sum per summed
// column.
type aggCell struct {
	count int64
	sums  []int64
}

// hashAgg groups the single child's rows by n.Agg's grouping column and emits
// one row per group — [group, COUNT(*), SUM(col)...] — in ascending group
// order. The spec's column references resolve to offsets once, up front. Each
// input row charges AggInput; each emitted group charges OutputTuple and one
// materialized row. The accumulation phase runs over contiguous input shards
// into one partial map per shard; partials merge order-insensitively (counts
// and sums are commutative), so the sorted emission is the same for every
// Partitions.
func (s *execState) hashAgg(n *plan.Node) ([][]int64, error) {
	cols, err := s.aggCols(n)
	if err != nil {
		return nil, err
	}
	groupCol, sumCols := cols[0], cols[1:]
	in, err := s.run(n.Children[0])
	if err != nil {
		return nil, err
	}
	partials := make([]map[int64]*aggCell, max(n.Partitions, 1))
	if _, err := s.ranged(len(in), n.Partitions, func(a *acct, shard, lo, hi int) ([][]int64, error) {
		cells := make(map[int64]*aggCell)
		partials[shard] = cells
		for _, row := range in[lo:hi] {
			if err := a.charge(&a.ctr.AggInput, 1); err != nil {
				return nil, err
			}
			cell := cells[row[groupCol]]
			if cell == nil {
				cell = &aggCell{sums: make([]int64, len(sumCols))}
				cells[row[groupCol]] = cell
			}
			cell.count++
			for i, c := range sumCols {
				cell.sums[i] += row[c]
			}
		}
		return nil, nil
	}); err != nil {
		return nil, err
	}
	groups := partials[0]
	for _, part := range partials[1:] {
		for k, cell := range part {
			dst := groups[k]
			if dst == nil {
				groups[k] = cell
				continue
			}
			dst.count += cell.count
			for i, v := range cell.sums {
				dst.sums[i] += v
			}
		}
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][]int64, 0, len(keys))
	for _, k := range keys {
		if err := s.charge(&s.ctr.OutputTuple, 1); err != nil {
			return nil, err
		}
		if err := s.chargeRows(1); err != nil {
			return nil, err
		}
		cell := groups[k]
		row := make([]int64, 0, 2+len(cell.sums))
		row = append(row, k, cell.count)
		row = append(row, cell.sums...)
		out = append(out, row)
	}
	n.ActualRows = float64(len(out))
	return out, nil
}

// aggCols resolves an aggregation's column references against its input's
// layout (see ColOffset): the grouping column first, then each summed column.
func (s *execState) aggCols(n *plan.Node) ([]int, error) {
	if n.Agg == nil {
		return nil, fmt.Errorf("exec: %v carries no aggregate spec", n.Op)
	}
	refs := append([]plan.AggCol{{Table: n.Agg.GroupTable, Col: n.Agg.GroupCol}}, n.Agg.Sums...)
	cols := make([]int, len(refs))
	for i, c := range refs {
		var ok bool
		if cols[i], ok = ColOffset(s.cat, n.Children[0], c.Table, c.Col); !ok {
			return nil, fmt.Errorf("exec: %s names t%d, which its input does not scan", n.Head(), c.Table)
		}
	}
	return cols, nil
}
