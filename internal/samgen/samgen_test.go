package samgen

import (
	"testing"

	"ml4db/internal/cardest"
	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/workload"
)

// hiddenDB builds the "customer" database the generator never sees directly,
// plus a labeled constraint workload over its correlated attribute pair.
func hiddenDB(t *testing.T, seed uint64, nConstraints int) (*datagen.StarSchema, []Constraint, [2]int) {
	t.Helper()
	rng := mlmath.NewRNG(seed)
	sch, err := datagen.NewStarSchema(rng, 8000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	gen := workload.NewStarGen(sch, rng)
	cols := [2]int{sch.AttrCols[0], sch.AttrCols[1]}
	var cs []Constraint
	for len(cs) < nConstraints {
		q := gen.SelectionQuery(2, true)
		preds := q.Filters[0]
		onModeled := true
		for _, p := range preds {
			if p.Col != cols[0] && p.Col != cols[1] {
				onModeled = false
			}
		}
		if !onModeled {
			continue
		}
		cs = append(cs, Constraint{Preds: preds, Fraction: cardest.TrueFraction(fact, preds)})
	}
	return sch, cs, cols
}

func TestFitReducesWorkloadError(t *testing.T) {
	sch, cs, cols := hiddenDB(t, 1, 150)
	_ = sch
	g := NewGenerator(cols, 1000, 32)
	errBefore := meanAbsErr(t, g, cs)
	if err := g.Fit(cs[:120], 6); err != nil {
		t.Fatal(err)
	}
	errAfter := meanAbsErr(t, g, cs[120:]) // held-out constraints
	errAfterTrain := meanAbsErr(t, g, cs[:120])
	if errAfterTrain >= errBefore {
		t.Errorf("IPF did not reduce training error: %v → %v", errBefore, errAfterTrain)
	}
	if errAfter >= errBefore {
		t.Errorf("IPF did not generalize to held-out constraints: %v vs %v", errAfter, errBefore)
	}
}

func meanAbsErr(t *testing.T, g *Generator, cs []Constraint) float64 {
	t.Helper()
	s := 0.0
	for _, c := range cs {
		est, err := g.EstimateFraction(c.Preds)
		if err != nil {
			t.Fatal(err)
		}
		d := est - c.Fraction
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(len(cs))
}

// TestGeneratedDatabaseMatchesWorkload is E16's core claim: the synthesized
// database reproduces the hidden database's workload cardinalities far
// better than an uninformed uniform database.
func TestGeneratedDatabaseMatchesWorkload(t *testing.T) {
	_, cs, cols := hiddenDB(t, 2, 200)
	g := NewGenerator(cols, 1000, 32)
	if err := g.Fit(cs[:160], 8); err != nil {
		t.Fatal(err)
	}
	rng := mlmath.NewRNG(3)
	synth := g.Generate(rng, 8000)
	uniform := NewGenerator(cols, 1000, 32).Generate(rng, 8000)

	qeSynth := workloadQErr(t, g, synth, cs[160:])
	qeUniform := workloadQErr(t, g, uniform, cs[160:])
	if qeSynth >= qeUniform {
		t.Errorf("generated DB q-error %v not below uniform DB %v", qeSynth, qeUniform)
	}
	if qeSynth > 4 {
		t.Errorf("generated DB median q-error %v too high", qeSynth)
	}
}

func workloadQErr(t *testing.T, g *Generator, tab *catalog.Table, cs []Constraint) float64 {
	t.Helper()
	var qs []float64
	const n = 1e6
	for _, c := range cs {
		frac := cardest.TrueFraction(tab, g.RemapPreds(c.Preds))
		qs = append(qs, mlmath.QError(frac*n, c.Fraction*n))
	}
	return mlmath.Median(qs)
}
