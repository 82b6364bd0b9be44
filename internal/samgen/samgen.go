package samgen

import (
	"fmt"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
)

// Constraint is one piece of supervision: a conjunctive range query over the
// generator's columns and the fraction of hidden-database rows it selects.
type Constraint struct {
	Preds    []expr.Pred
	Fraction float64
}

// Generator synthesizes databases matching workload constraints over two
// attribute columns (the correlated pair the estimators struggle with).
type Generator struct {
	// Cols are the two column indexes the constraints reference.
	Cols [2]int
	// Domain is the value domain [0, Domain) of both columns.
	Domain int64
	// GridSide is the density resolution per dimension.
	GridSide int

	density []float64 // GridSide×GridSide cell masses, sums to 1
}

// NewGenerator builds a generator with a uniform prior density.
func NewGenerator(cols [2]int, domain int64, gridSide int) *Generator {
	g := &Generator{Cols: cols, Domain: domain, GridSide: gridSide}
	g.density = make([]float64, gridSide*gridSide)
	u := 1 / float64(len(g.density))
	for i := range g.density {
		g.density[i] = u
	}
	return g
}

// cellRange returns the grid cell interval [lo, hi] covered by a value
// interval.
func (g *Generator) cellRange(lo, hi int64) (int, int) {
	cl := int(lo * int64(g.GridSide) / g.Domain)
	ch := int(hi * int64(g.GridSide) / g.Domain)
	return clamp(cl, 0, g.GridSide-1), clamp(ch, 0, g.GridSide-1)
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// box converts a constraint's predicates to a cell box; columns without
// predicates span the full grid.
func (g *Generator) box(preds []expr.Pred) (x0, x1, y0, y1 int, err error) {
	x0, x1, y0, y1 = 0, g.GridSide-1, 0, g.GridSide-1
	for _, p := range preds {
		lo, hi, ok := p.Range(0, g.Domain-1)
		if !ok {
			return 0, 0, 0, 0, fmt.Errorf("datagen: non-interval predicate %s", p)
		}
		if lo < 0 {
			lo = 0
		}
		if hi >= g.Domain {
			hi = g.Domain - 1
		}
		cl, ch := g.cellRange(lo, hi)
		switch p.Col {
		case g.Cols[0]:
			if cl > x0 {
				x0 = cl
			}
			if ch < x1 {
				x1 = ch
			}
		case g.Cols[1]:
			if cl > y0 {
				y0 = cl
			}
			if ch < y1 {
				y1 = ch
			}
		default:
			return 0, 0, 0, 0, fmt.Errorf("datagen: predicate on unmodeled column %d", p.Col)
		}
	}
	return x0, x1, y0, y1, nil
}

// Fit runs iterative proportional fitting: for each constraint, scale the
// density inside its box so its mass matches the observed fraction, then
// renormalize. passes controls the number of sweeps.
func (g *Generator) Fit(constraints []Constraint, passes int) error {
	for pass := 0; pass < passes; pass++ {
		for _, c := range constraints {
			x0, x1, y0, y1, err := g.box(c.Preds)
			if err != nil {
				return err
			}
			if x1 < x0 || y1 < y0 {
				continue // empty box cannot be adjusted
			}
			mass := 0.0
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					mass += g.density[y*g.GridSide+x]
				}
			}
			target := mlmath.Clamp(c.Fraction, 0, 1)
			if mass < 1e-12 {
				// Re-seed an emptied box so it can grow back.
				seed := target / float64((x1-x0+1)*(y1-y0+1))
				for y := y0; y <= y1; y++ {
					for x := x0; x <= x1; x++ {
						g.density[y*g.GridSide+x] = seed
					}
				}
			} else {
				scaleIn := target / mass
				for y := y0; y <= y1; y++ {
					for x := x0; x <= x1; x++ {
						g.density[y*g.GridSide+x] *= scaleIn
					}
				}
			}
			// Renormalize total mass to 1 by scaling the outside.
			g.renormalizeOutside(x0, x1, y0, y1, target)
		}
	}
	return nil
}

// renormalizeOutside scales cells outside the box so total mass is 1.
func (g *Generator) renormalizeOutside(x0, x1, y0, y1 int, inMass float64) {
	outMass := 0.0
	for y := 0; y < g.GridSide; y++ {
		for x := 0; x < g.GridSide; x++ {
			if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
				continue
			}
			outMass += g.density[y*g.GridSide+x]
		}
	}
	want := 1 - inMass
	if outMass < 1e-12 {
		if want > 1e-12 {
			seed := want / float64(g.GridSide*g.GridSide)
			for y := 0; y < g.GridSide; y++ {
				for x := 0; x < g.GridSide; x++ {
					if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
						continue
					}
					g.density[y*g.GridSide+x] = seed
				}
			}
		}
		return
	}
	scale := want / outMass
	for y := 0; y < g.GridSide; y++ {
		for x := 0; x < g.GridSide; x++ {
			if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
				continue
			}
			g.density[y*g.GridSide+x] *= scale
		}
	}
}

// EstimateFraction predicts the selectivity of predicates under the fitted
// density (the generator doubles as an estimator).
func (g *Generator) EstimateFraction(preds []expr.Pred) (float64, error) {
	x0, x1, y0, y1, err := g.box(preds)
	if err != nil {
		return 0, err
	}
	if x1 < x0 || y1 < y0 {
		return 0, nil
	}
	mass := 0.0
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			mass += g.density[y*g.GridSide+x]
		}
	}
	return mass, nil
}

// Generate samples rows from the fitted density into a fresh table with two
// columns named a and b (values uniform within their cell).
func (g *Generator) Generate(rng *mlmath.RNG, rows int) *catalog.Table {
	t := catalog.NewTable("generated", "a", "b")
	cdf := make([]float64, len(g.density))
	sum := 0.0
	for i, m := range g.density {
		sum += m
		cdf[i] = sum
	}
	cellSpan := float64(g.Domain) / float64(g.GridSide)
	for r := 0; r < rows; r++ {
		u := rng.Float64() * sum
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		cx, cy := lo%g.GridSide, lo/g.GridSide
		a := int64(float64(cx)*cellSpan + rng.Float64()*cellSpan)
		b := int64(float64(cy)*cellSpan + rng.Float64()*cellSpan)
		if a >= g.Domain {
			a = g.Domain - 1
		}
		if b >= g.Domain {
			b = g.Domain - 1
		}
		// Generated table columns are 0 and 1 regardless of source column
		// indexes; RemapPreds translates workload predicates.
		if err := t.AppendRow([]int64{a, b}); err != nil {
			//ml4db:allow nakedpanic "unreachable: rows have two columns by construction"
			panic(err) // two columns by construction
		}
	}
	return t
}

// RemapPreds rewrites workload predicates from the source column indexes to
// the generated table's columns (0 and 1).
func (g *Generator) RemapPreds(preds []expr.Pred) []expr.Pred {
	out := make([]expr.Pred, len(preds))
	for i, p := range preds {
		q := p
		switch p.Col {
		case g.Cols[0]:
			q.Col = 0
		case g.Cols[1]:
			q.Col = 1
		}
		out[i] = q
	}
	return out
}
