package exec

import "ml4db/internal/mlmath"

// This file is the whole of exchange-style partitioned parallelism. Every
// partitionable operator writes its loop once, as a rangeBody over a
// contiguous slice of its input, and ranged decides how the ranges run. The
// contract is exact serial equivalence: for any plan, pool and worker count
// a partitioned execution produces the rows, Counters, budget-abort point and
// EXPLAIN ANALYZE tree of the serial execution, bit for bit, because
//
//   - ranges are contiguous (mlmath.ShardRange), so concatenating shard
//     batches in shard order is the serial row order;
//   - a shard charges a private acct, and the coordinator folds the accounts
//     into the live one in shard order, re-running inline — against the live
//     account — the one shard whose charges would cross a limit;
//   - the pool hands out whole shards, so the worker count changes timing
//     only.
//
// docs/EXECUTOR.md carries the argument and the cost of the re-run.

// rangeBody runs one operator loop over input positions [lo, hi), charging a
// and returning what it produced as a batch — a scan's selection vector, a
// join's (left, right) position vectors, a disk scan's decoded columns; the
// operator turns the concatenation into its output once. shard indexes
// per-shard operator state (HashAgg's partials). A body must be a
// deterministic function of its range: the same charges in the same order on
// every call. Shards read their inputs' columns concurrently and write none.
type rangeBody func(a *acct, shard, lo, hi int) (batch, error)

// ranged runs body over [0, n) split into parts contiguous shards. With
// parts ≤ 1 that is one call against the live account: the serial loop.
func (s *execState) ranged(n, parts int, body rangeBody) (batch, error) {
	if parts <= 1 {
		return body(&s.acct, 0, 0, n)
	}
	// Each shard's account starts at the coordinator's totals with no
	// counters, so a shard stops as soon as its own charges alone guarantee
	// the execution aborts, and its counters are exactly its deltas.
	type shardRun struct {
		acct
		out batch
		err error
	}
	seed := acct{work: s.work, rows: s.rows, lim: s.lim}
	runs := make([]shardRun, parts)
	s.pool.ForEachShard(parts, func(_, first, end int) {
		for k := first; k < end; k++ {
			r := &runs[k]
			r.acct = seed
			lo, hi := mlmath.ShardRange(n, parts, k)
			r.out, r.err = body(&r.acct, k, lo, hi)
		}
	})
	total := 0
	for k := range runs {
		total += runs[k].out.n
	}
	var out batch
	for k := range runs {
		r := &runs[k]
		workBefore := s.work
		sp := s.e.Trace.StartSpan("exec.exchange.shard", s.cur)
		// Fold by charging the shard's totals to a copy of the live account,
		// so charge and chargeRows stay the only code that tests a limit.
		var sink int64
		var err error
		next := s.acct
		next.ctr, next.skipped = addCounters(next.ctr, r.ctr, 1), next.skipped+r.skipped
		if r.err == nil && next.charge(&sink, r.work-seed.work) == nil && next.chargeRows(r.rows-seed.rows) == nil {
			s.acct = next
		} else {
			// The shard failed, or its charges cross a limit somewhere inside
			// it. The same loop over the same range from the live budget
			// position stops on exactly the charge the serial execution stops
			// on (or on the shard's own error, if that comes first).
			lo, hi := mlmath.ShardRange(n, parts, k)
			r.out, err = body(&s.acct, k, lo, hi)
		}
		sp.SetInt("shard", int64(k)).SetInt("work", s.work-workBefore).SetInt("rows", int64(r.out.n))
		sp.End()
		if err != nil {
			return batch{}, err
		}
		s.extend(&out, r.out, total)
	}
	return out, nil
}
