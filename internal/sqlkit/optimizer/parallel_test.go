package optimizer

import (
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// TestParallelizeCostsKnob pins the Partitions costing: with parallelism
// available, a big scan partitions (its CPU term divides by the degree, the
// per-shard startup term bounds the degree), the plan's EstCost drops below
// the serial plan's, every assigned degree stays within [1, Parallelism],
// and ineligible operators stay serial.
func TestParallelizeCostsKnob(t *testing.T) {
	rng := mlmath.NewRNG(3)
	sch, err := datagen.NewStarSchema(rng, 4000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := plan.NewQuery(sch.FactID, sch.DimIDs[0], sch.DimIDs[1])
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: sch.FKCol[0], RightTable: 1, RightCol: 0})
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: sch.FKCol[1], RightTable: 2, RightCol: 0})

	serialOpt := New(sch.Cat)
	parOpt := New(sch.Cat)
	parOpt.Parallelism = 8

	serial, err := serialOpt.Plan(q, NoHint())
	if err != nil {
		t.Fatal(err)
	}
	par, err := parOpt.Plan(q, NoHint())
	if err != nil {
		t.Fatal(err)
	}

	serial.Walk(func(n *plan.Node) {
		if n.Partitions > 1 {
			t.Errorf("serial optimizer assigned Partitions=%d to %v", n.Partitions, n.Op)
		}
	})
	sawParallel := false
	par.Walk(func(n *plan.Node) {
		if n.Partitions < 1 || n.Partitions > 8 {
			t.Errorf("%v: Partitions=%d outside [1, 8]", n.Op, n.Partitions)
		}
		if n.Partitions > 1 {
			sawParallel = true
			switch n.Op {
			case plan.OpIndexScan, plan.OpMergeJoin:
				t.Errorf("%v partitioned; it never should be", n.Op)
			}
		}
	})
	if !sawParallel {
		t.Error("no operator partitioned despite Parallelism=8 and a 4000-row fact scan")
	}
	if par.EstCost >= serial.EstCost {
		t.Errorf("parallel plan cost %.0f not below serial %.0f", par.EstCost, serial.EstCost)
	}
}

// TestParallelizeSkipsSmallScans pins the startup term: when the whole query
// is tiny, paying ExchangeStartup per shard never wins and every node stays
// serial.
func TestParallelizeSkipsSmallScans(t *testing.T) {
	rng := mlmath.NewRNG(5)
	sch, err := datagen.NewStarSchema(rng, 20, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := New(sch.Cat)
	opt.Parallelism = 8
	q := plan.NewQuery(sch.FactID)
	p, err := opt.Plan(q, NoHint())
	if err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		if n.Partitions > 1 {
			t.Errorf("%v: Partitions=%d on a 20-row table; startup should dominate", n.Op, n.Partitions)
		}
	})
}
