package mlmath

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMat allocates a zero matrix with the given shape.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		//ml4db:allow nakedpanic "caller bug: negative dimensions are a programming error, as in stdlib make"
		panic("mlmath: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes m·x and returns a new vector. It panics on shape mismatch.
func (m *Mat) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		//ml4db:allow nakedpanic "caller bug: shape mismatch, same contract as gonum/BLAS"
		panic(fmt.Sprintf("mlmath: MulVec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// MulVecT computes mᵀ·x (x has length Rows) and returns a new vector.
func (m *Mat) MulVecT(x []float64) []float64 {
	if len(x) != m.Rows {
		//ml4db:allow nakedpanic "caller bug: shape mismatch, same contract as gonum/BLAS"
		panic(fmt.Sprintf("mlmath: MulVecT shape mismatch %dx%d ᵀ· %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		AXPY(out, x[i], m.Row(i))
	}
	return out
}

// Mul returns m·b as a new matrix. It is the serial entry point to the
// cache-blocked kernel; use MatMul with a Pool to split row blocks across
// workers (the results are bit-identical either way).
func (m *Mat) Mul(b *Mat) *Mat { return MatMul(m, b, nil) }

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// SolveLinear solves A·x = b with Gaussian elimination and partial pivoting.
// A must be square; A and b are left unmodified. It returns an error when the
// system is singular (pivot magnitude below 1e-12).
func SolveLinear(a *Mat, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("mlmath: SolveLinear needs square system, got %dx%d and b of %d", a.Rows, a.Cols, len(b))
	}
	// Augmented working copy.
	m := a.Clone()
	x := Clone(b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("mlmath: singular system at column %d", col)
		}
		if pivot != col {
			ri, rj := m.Row(col), m.Row(pivot)
			for k := range ri {
				ri[k], rj[k] = rj[k], ri[k]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			AXPY(m.Row(r), -f, m.Row(col))
			m.Set(r, col, 0)
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// RidgeRegression fits w minimizing ||X·w − y||² + λ||w||² via the normal
// equations (XᵀX + λI)·w = Xᵀy. X has one sample per row.
func RidgeRegression(x *Mat, y []float64, lambda float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("mlmath: ridge shape mismatch: %d rows, %d targets", x.Rows, len(y))
	}
	d := x.Cols
	xtx := NewMat(d, d)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for i := 0; i < d; i++ {
			if row[i] == 0 {
				continue
			}
			AXPY(xtx.Row(i), row[i], row)
		}
	}
	for i := 0; i < d; i++ {
		xtx.Set(i, i, xtx.At(i, i)+lambda)
	}
	xty := x.MulVecT(y)
	return SolveLinear(xtx, xty)
}
