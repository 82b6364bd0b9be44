package optimizer

import (
	"math"

	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// CostParams are the tunable coefficients of the formula cost model — the
// "R-params" that ParamTree (§3.2) learns. When the coefficients match the
// executor's true per-operation work, estimated cost equals actual work given
// true cardinalities.
type CostParams struct {
	CPUTuple    float64 // per tuple scanned by SeqScan
	HashBuild   float64 // per build-side tuple of HashJoin
	HashProbe   float64 // per probe-side tuple of HashJoin
	NLTuple     float64 // per (outer, inner) pair of NLJoin
	MergeSort   float64 // per tuple·log2(tuples) of MergeJoin sorting
	MergeScan   float64 // per input tuple of the merge phase
	OutputTuple float64 // per output tuple of HashJoin/MergeJoin
	IndexProbe  float64 // per binary-search step of an IndexScan probe
	IndexFetch  float64 // per row fetched through a secondary index
	PageRead    float64 // per buffer-pool miss of a disk-table scan
	AggTuple    float64 // per input tuple accumulated by HashAgg

	// ExchangeStartup is the per-shard coordination overhead of a
	// partitioned (exchange-parallel) operator, in cost units. It models
	// latency the executor never charges as work — shard setup and merge —
	// so it is excluded from Vec (ParamTree fits work-unit coefficients
	// only) and is zero in TrueCostParams, keeping the "true params
	// reproduce actual work" identity exact at any partition count.
	ExchangeStartup float64
}

// TrueCostParams mirror the executor's work charges exactly.
func TrueCostParams() CostParams {
	return CostParams{
		CPUTuple: 1, HashBuild: 1, HashProbe: 1, NLTuple: 1,
		MergeSort: 1, MergeScan: 1, OutputTuple: 1, IndexProbe: 1, IndexFetch: 1,
		PageRead: 1, AggTuple: 1,
	}
}

// DefaultCostParams are deliberately mis-calibrated defaults, standing in for
// a database whose cost constants were never tuned to the hardware — the
// situation ParamTree addresses.
func DefaultCostParams() CostParams {
	return CostParams{
		CPUTuple: 1, HashBuild: 4, HashProbe: 0.5, NLTuple: 0.25,
		MergeSort: 0.5, MergeScan: 2, OutputTuple: 0.1, IndexProbe: 2, IndexFetch: 0.25,
		PageRead: 16, AggTuple: 2, ExchangeStartup: 32,
	}
}

// Vec returns the parameters as a feature vector (ParamTree's learning
// target).
func (p CostParams) Vec() []float64 {
	return []float64{
		p.CPUTuple, p.HashBuild, p.HashProbe, p.NLTuple,
		p.MergeSort, p.MergeScan, p.OutputTuple, p.IndexProbe, p.IndexFetch,
		p.PageRead, p.AggTuple,
	}
}

// ParamsFromVec reconstructs CostParams from Vec ordering.
func ParamsFromVec(v []float64) CostParams {
	return CostParams{
		CPUTuple: v[0], HashBuild: v[1], HashProbe: v[2], NLTuple: v[3],
		MergeSort: v[4], MergeScan: v[5], OutputTuple: v[6], IndexProbe: v[7], IndexFetch: v[8],
		PageRead: v[9], AggTuple: v[10],
	}
}

// JoinCost returns the formula cost of joining inputs of the given estimated
// sizes with operator op, excluding child costs. It takes a pointer: the
// search calls it per candidate, and a value receiver would copy all 96
// bytes of the parameters each time.
func (p *CostParams) JoinCost(op plan.OpType, leftRows, rightRows, outRows float64) float64 {
	switch op {
	case plan.OpHashJoin:
		return p.HashBuild*leftRows + p.HashProbe*rightRows + p.OutputTuple*outRows
	case plan.OpNLJoin:
		return p.NLTuple * leftRows * rightRows
	case plan.OpMergeJoin:
		return p.MergeSort*(plan.SortUnits(leftRows)+plan.SortUnits(rightRows)) +
			p.MergeScan*(leftRows+rightRows) + p.OutputTuple*outRows
	default:
		return math.Inf(1)
	}
}

// ScanCost returns the formula cost of scanning a base table of tableRows.
func (p CostParams) ScanCost(tableRows float64) float64 { return p.CPUTuple * tableRows }

// IndexScanCost returns the formula cost of an index scan over a table of
// tableRows fetching estFetched rows through the index.
func (p CostParams) IndexScanCost(tableRows, estFetched float64) float64 {
	return p.IndexProbe*float64(plan.ProbeSteps(int(tableRows))) + p.IndexFetch*estFetched
}

// AggCost returns the formula cost of hash-aggregating inRows input tuples
// into groups output groups, excluding child costs.
func (p CostParams) AggCost(inRows, groups float64) float64 {
	return p.AggTuple*inRows + p.OutputTuple*groups
}

// CardEstimator estimates result sizes. The expert implementation uses
// histograms; learned estimators (internal/cardest) satisfy the same
// interface, which is how "ML-enhanced" estimation plugs into the classical
// optimizer without replacing it.
type CardEstimator interface {
	// ScanRows estimates output rows of scanning q's table at position pos
	// with its filters applied.
	ScanRows(q *plan.Query, pos int) float64
	// JoinSelectivity estimates the selectivity of the equi-join condition.
	JoinSelectivity(q *plan.Query, cond expr.JoinCond) float64
}
