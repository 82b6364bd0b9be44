package planrep

import (
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/workload"
)

func testSchema(t *testing.T) (*datagen.StarSchema, *workload.StarGen) {
	t.Helper()
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewStarSchema(rng, 2000, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	return sch, workload.NewStarGen(sch, rng)
}

func TestFeatDimByConfig(t *testing.T) {
	sch, _ := testSchema(t)
	full := NewPlanEncoder(sch.Cat, FullFeatures())
	sem := NewPlanEncoder(sch.Cat, SemanticOnly())
	st := NewPlanEncoder(sch.Cat, StatsOnly())
	if full.FeatDim() != sem.FeatDim()+st.FeatDim() {
		t.Errorf("full dim %d != semantic %d + stats %d", full.FeatDim(), sem.FeatDim(), st.FeatDim())
	}
	if st.FeatDim() != 2 {
		t.Errorf("stats dim = %d, want 2", st.FeatDim())
	}
}

func TestConfigNames(t *testing.T) {
	if FullFeatures().Name() != "full" || SemanticOnly().Name() != "semantic" ||
		StatsOnly().Name() != "stats" || (FeatureConfig{}).Name() != "none" {
		t.Error("config names wrong")
	}
}

func TestEncodePlanShapeMirrorsTree(t *testing.T) {
	sch, gen := testSchema(t)
	opt := optimizer.New(sch.Cat)
	pe := NewPlanEncoder(sch.Cat, FullFeatures())
	q := gen.QueryWithDims(3)
	p, err := opt.Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	enc := pe.Encode(p)
	if enc.NumNodes() != p.NumNodes() {
		t.Errorf("encoded nodes %d != plan nodes %d", enc.NumNodes(), p.NumNodes())
	}
	if enc.Depth() != p.Depth() {
		t.Errorf("encoded depth %d != plan depth %d", enc.Depth(), p.Depth())
	}
	for _, n := range enc.Flatten() {
		if len(n.Feat) != pe.FeatDim() {
			t.Fatalf("feature width %d != %d", len(n.Feat), pe.FeatDim())
		}
	}
}

func TestSemanticFeaturesDistinguishOperators(t *testing.T) {
	sch, gen := testSchema(t)
	opt := optimizer.New(sch.Cat)
	pe := NewPlanEncoder(sch.Cat, SemanticOnly())
	q := gen.QueryWithDims(2)
	ph, err := opt.Plan(q, optimizer.HintSet{Name: "h", JoinOps: nil})
	if err != nil {
		t.Fatal(err)
	}
	enc := pe.Encode(ph)
	// Root is a join: its operator one-hot must differ from a leaf's.
	root := enc.Feat
	leaf := enc.Flatten()[len(enc.Flatten())-1].Feat
	same := true
	for i := 0; i < 4; i++ {
		if root[i] != leaf[i] {
			same = false
		}
	}
	if same {
		t.Error("operator one-hot identical for join and scan")
	}
}

func TestStatsFeaturesReflectAnnotations(t *testing.T) {
	sch, gen := testSchema(t)
	opt := optimizer.New(sch.Cat)
	pe := NewPlanEncoder(sch.Cat, StatsOnly())
	q := gen.QueryWithDims(2)
	p, err := opt.Plan(q, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	enc := pe.Encode(p)
	for _, n := range enc.Flatten() {
		for _, v := range n.Feat {
			if v < 0 {
				t.Errorf("stats feature negative: %v", v)
			}
		}
	}
	// Zeroing the annotations must change the stats features.
	p2 := p.Clone()
	p2.Walk(func(n *plan.Node) { n.EstRows, n.EstCost = 0, 0 })
	f1, f2 := enc.Feat, pe.Encode(p2).Feat
	same := true
	for i := range f1 {
		if f1[i] != f2[i] {
			same = false
		}
	}
	if same {
		t.Error("stats features ignore plan annotations")
	}
}

func TestPredicateSummaryChangesWithFilters(t *testing.T) {
	sch, gen := testSchema(t)
	opt := optimizer.New(sch.Cat)
	pe := NewPlanEncoder(sch.Cat, SemanticOnly())
	qa := gen.SelectionQuery(1, false)
	qb := gen.SelectionQuery(3, false)
	pa, err := opt.Plan(qa, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := opt.Plan(qb, optimizer.NoHint())
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := pe.Encode(pa).Feat, pe.Encode(pb).Feat
	d := pe.FeatDim()
	// Predicate-count slot is the 3rd from the end.
	if fa[d-3] >= fb[d-3] {
		t.Errorf("predicate count feature: 1-pred %v vs 3-pred %v", fa[d-3], fb[d-3])
	}
}
