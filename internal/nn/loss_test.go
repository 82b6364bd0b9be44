package nn

import (
	"math"
	"testing"

	"ml4db/internal/mlmath"
)

// Table-driven edge-case audit of the loss functions: empty batches must
// return zero (not NaN from 0/0), extreme predictions must stay finite, and
// gradients must match the analytic derivative on known values.
func TestLossEdgeCases(t *testing.T) {
	losses := map[string]func(pred, target, grad []float64) float64{
		"mse": MSELoss,
	}
	cases := []struct {
		name         string
		pred, target []float64
	}{
		{"empty batch", nil, nil},
		{"zero-length slices", []float64{}, []float64{}},
		{"single sample", []float64{0.4}, []float64{1}},
		{"pred at zero", []float64{0, 0}, []float64{0, 1}},
		{"pred at one", []float64{1, 1}, []float64{0, 1}},
		{"pred outside (0,1)", []float64{-3, 4}, []float64{0, 1}},
		{"large magnitude", []float64{1e8, -1e8}, []float64{0, 1}},
	}
	for lossName, loss := range losses {
		for _, tc := range cases {
			grad := make([]float64, len(tc.pred))
			got := loss(tc.pred, tc.target, grad)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s/%s: loss = %v, want finite", lossName, tc.name, got)
			}
			if len(tc.pred) == 0 && got != 0 {
				t.Errorf("%s/%s: empty batch loss = %v, want 0", lossName, tc.name, got)
			}
			for i, g := range grad {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Errorf("%s/%s: grad[%d] = %v, want finite", lossName, tc.name, i, g)
				}
			}
		}
	}
}

func TestMSELossKnownValues(t *testing.T) {
	pred := []float64{1, 3}
	target := []float64{0, 1}
	grad := make([]float64, 2)
	got := MSELoss(pred, target, grad)
	if want := (1.0 + 4.0) / 2; math.Abs(got-want) > 1e-15 {
		t.Fatalf("MSELoss = %v, want %v", got, want)
	}
	// d/dpred_i of mean squared error is 2(pred_i - target_i)/n.
	if math.Abs(grad[0]-1) > 1e-15 || math.Abs(grad[1]-2) > 1e-15 {
		t.Fatalf("MSELoss grad = %v, want [1 2]", grad)
	}
}

// TestFitEmptyDataset: fitting on no data must return 0 and leave the model
// untouched rather than minting NaN means.
func TestFitEmptyDataset(t *testing.T) {
	m := NewMLP([]int{2, 2, 1}, Tanh{}, Identity{}, mlmath.NewRNG(1))
	before := append([]float64{}, m.Layers[0].W.Val...)
	got := m.Fit(nil, nil, FitOptions{Epochs: 3})
	if got != 0 {
		t.Fatalf("Fit on empty dataset = %v, want 0", got)
	}
	for i, v := range m.Layers[0].W.Val {
		if v != before[i] {
			t.Fatal("Fit on empty dataset modified parameters")
		}
	}
}
