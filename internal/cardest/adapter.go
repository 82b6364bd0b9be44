package cardest

import (
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// OptimizerAdapter plugs a learned selectivity estimator into the classical
// optimizer as its scan-cardinality source, keeping the histogram machinery
// for everything else — the ML-enhanced integration path: the optimizer's
// search and cost model stay intact, only the estimates improve.
//
// The learned model covers one table (the fact table of the star schema);
// scans of other tables and join selectivities fall back to histograms.
type OptimizerAdapter struct {
	// Learned estimates selectivities for LearnedTable.
	Learned Estimator
	// LearnedTable is the catalog table ID the model covers.
	LearnedTable int
	// Fallback handles everything else.
	Fallback optimizer.CardEstimator
}

var _ optimizer.CardEstimator = (*OptimizerAdapter)(nil)

// ScanRows implements optimizer.CardEstimator.
func (a *OptimizerAdapter) ScanRows(q *plan.Query, pos int) float64 {
	if q.Tables[pos] != a.LearnedTable {
		return a.Fallback.ScanRows(q, pos)
	}
	preds := q.Filters[pos]
	if len(preds) == 0 {
		return a.Fallback.ScanRows(q, pos)
	}
	frac := a.Learned.EstimateFraction(preds)
	// Recover the row count through the fallback's estimate of the table
	// alone, unfiltered.
	alone := plan.Query{Tables: q.Tables[pos : pos+1 : pos+1], Filters: noFilters[:]}
	unfiltered := a.Fallback.ScanRows(&alone, 0)
	est := frac * unfiltered
	if est < 1 {
		est = 1
	}
	return est
}

// JoinSelectivity implements optimizer.CardEstimator via the fallback.
func (a *OptimizerAdapter) JoinSelectivity(q *plan.Query, cond expr.JoinCond) float64 {
	return a.Fallback.JoinSelectivity(q, cond)
}

// noFilters is the filter list of a one-table query without filters. It is
// shared by every ScanRows call and never written.
var noFilters [1][]expr.Pred
