package bandit

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
)

// ThompsonLinear is a contextual Thompson-sampling bandit: each arm a keeps
// a Bayesian linear model of reward, with Gaussian posterior
// N(μ_a, σ²·A_a⁻¹) where A_a = λI + Σxxᵀ and μ_a = A_a⁻¹·Σrx.
type ThompsonLinear struct {
	Arms, Dim int
	// Noise is the assumed reward noise σ; Prior is the ridge λ.
	Noise, Prior float64

	a []*mlmath.Mat // per-arm precision matrices
	b [][]float64   // per-arm Σ r·x
}

// NewThompsonLinear constructs the bandit for arms arms over dim-dimensional
// contexts.
func NewThompsonLinear(arms, dim int, noise, prior float64) *ThompsonLinear {
	if noise <= 0 {
		noise = 1
	}
	if prior <= 0 {
		prior = 1
	}
	t := &ThompsonLinear{Arms: arms, Dim: dim, Noise: noise, Prior: prior}
	for i := 0; i < arms; i++ {
		a := mlmath.NewMat(dim, dim)
		for d := 0; d < dim; d++ {
			a.Set(d, d, prior)
		}
		t.a = append(t.a, a)
		t.b = append(t.b, make([]float64, dim))
	}
	return t
}

// Select draws a posterior weight sample per arm and returns the arm whose
// sampled model predicts the highest reward for ctx.
func (t *ThompsonLinear) Select(ctx []float64, rng *mlmath.RNG) (int, error) {
	if len(ctx) != t.Dim {
		return 0, fmt.Errorf("bandit: context dim %d, want %d", len(ctx), t.Dim)
	}
	best, bestVal := 0, math.Inf(-1)
	for arm := 0; arm < t.Arms; arm++ {
		w, err := t.SampleWeights(arm, rng)
		if err != nil {
			return 0, err
		}
		if v := mlmath.Dot(w, ctx); v > bestVal {
			best, bestVal = arm, v
		}
	}
	return best, nil
}

// SampleWeights draws w̃ ~ N(μ_a, σ²A_a⁻¹) via Cholesky.
func (t *ThompsonLinear) SampleWeights(arm int, rng *mlmath.RNG) ([]float64, error) {
	l, err := mlmath.Cholesky(t.a[arm])
	if err != nil {
		return nil, fmt.Errorf("bandit: arm %d precision not SPD: %w", arm, err)
	}
	mu := mlmath.SolveUpperT(l, mlmath.SolveLower(l, t.b[arm]))
	// A = LLᵀ ⇒ A⁻¹ = L⁻ᵀL⁻¹; sample = μ + σ·L⁻ᵀz has covariance σ²A⁻¹.
	z := make([]float64, t.Dim)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	dev := mlmath.SolveUpperT(l, z)
	for i := range mu {
		mu[i] += t.Noise * dev[i]
	}
	return mu, nil
}

// Mean returns the posterior mean prediction of an arm for ctx.
func (t *ThompsonLinear) Mean(arm int, ctx []float64) (float64, error) {
	mu, err := mlmath.SolveSPD(t.a[arm], t.b[arm])
	if err != nil {
		return 0, err
	}
	return mlmath.Dot(mu, ctx), nil
}

// Update incorporates an observed reward for arm under ctx.
func (t *ThompsonLinear) Update(arm int, ctx []float64, reward float64) {
	a := t.a[arm]
	for i := 0; i < t.Dim; i++ {
		if ctx[i] == 0 {
			continue
		}
		mlmath.AXPY(a.Row(i), ctx[i], ctx)
		t.b[arm][i] += reward * ctx[i]
	}
}
