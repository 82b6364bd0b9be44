package exec

import (
	"fmt"
	"sort"

	"ml4db/internal/sqlkit/plan"
)

// aggPartial is one shard's groups: slot maps a group value to where its
// output row — the value, COUNT(*), one running sum per summed column —
// starts in acc.
type aggPartial struct {
	slot map[int64]int
	acc  []int64
}

// hashAgg groups the single child's rows by n.Agg's grouping column and emits
// one row per group — [group, COUNT(*), SUM(col)...] — in ascending group
// order. The spec's column references resolve to offsets once, up front, and
// are all the child is asked for, and the columns it reads are taken dense.
// Each input row charges AggInput; each emitted group charges OutputTuple and
// one materialized row. Accumulation runs over contiguous input shards, a
// partial per shard; partials merge order-insensitively (counts and sums
// commute), so the sorted emission is the same for every Partitions.
func (s *execState) hashAgg(n *plan.Node, ord int, need []bool) (batch, error) {
	cols, err := s.aggCols(n)
	if err != nil {
		return batch{}, err
	}
	reads := s.a.bools.cut(width(s.e.Cat, n.Children[0]))
	for _, c := range cols {
		reads[c] = true
	}
	in, err := s.run(n.Children[0], ord+n.ChildAt(0), reads)
	if err != nil {
		return batch{}, err
	}
	for c, m := range reads {
		if m {
			in.cols[c] = s.dense(in, c)
		}
	}
	vals, sums, stride := in.cols, cols[1:], 1+len(cols)
	group := vals[cols[0]]
	partials := make([]aggPartial, max(n.Partitions, 1))
	if _, err := s.ranged(in.n, n.Partitions, func(a *acct, shard, lo, hi int) (batch, error) {
		p := aggPartial{slot: make(map[int64]int)}
		for r := lo; r < hi; r++ {
			if err := a.charge(&a.ctr.AggInput, 1); err != nil {
				return batch{}, err
			}
			at, ok := p.slot[group[r]]
			if !ok {
				at = len(p.acc)
				p.slot[group[r]] = at
				p.acc = append(append(p.acc, group[r]), make([]int64, stride-1)...)
			}
			p.acc[at+1]++
			for i, c := range sums {
				p.acc[at+2+i] += vals[c][r]
			}
		}
		partials[shard] = p
		return batch{}, nil
	}); err != nil {
		return batch{}, err
	}
	groups := partials[0]
	for _, p := range partials[1:] {
		for k, at := range p.slot {
			dst, ok := groups.slot[k]
			if !ok {
				groups.slot[k] = len(groups.acc)
				groups.acc = append(groups.acc, p.acc[at:at+stride]...)
				continue
			}
			for i, v := range p.acc[at+1 : at+stride] {
				groups.acc[dst+1+i] += v
			}
		}
	}
	keys := make(column, 0, len(groups.slot))
	for k := range groups.slot {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := s.newBatch(len(keys), len(keys), need)
	for i, k := range keys {
		if _, err := chargeChunk(&s.acct, &s.ctr.OutputTuple, 1, nil, ordinals[:1], 0); err != nil {
			return batch{}, err
		}
		for c, v := range groups.acc[groups.slot[k]:][:stride] {
			if need[c] {
				out.cols[c][i] = v
			}
		}
	}
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
		if cols[i], ok = ColOffset(s.e.Cat, n.Children[0], c.Table, c.Col); !ok {
			return nil, fmt.Errorf("exec: %s names t%d, which its input does not scan", n.Head(), c.Table)
		}
	}
	return cols, nil
}
