package mlmath

import "fmt"

// MatMulBlock is the tile edge of the cache-blocked kernels: a 64×64 tile
// of float64 is 32 KiB, so one tile of b plus a strip of a and out stays
// resident in a typical L1 data cache while it is reused across the rows of
// a row block.
const MatMulBlock = 64

// MatMul computes a·b with the cache-blocked kernel, splitting row blocks
// of the output across pool p. Every output element accumulates its k terms
// in ascending-k order no matter how rows are partitioned, so the result is
// bit-identical for any worker count, including the serial nil-pool path.
// It panics on shape mismatch.
func MatMul(a, b *Mat, p *Pool) *Mat {
	if a.Cols != b.Rows {
		//ml4db:allow nakedpanic "caller bug: shape mismatch, same contract as gonum/BLAS"
		panic(fmt.Sprintf("mlmath: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	p.ParallelFor(a.Rows, func(lo, hi int) { matMulRows(out, a, b, lo, hi) })
	return out
}

// matMulRows computes out rows [lo, hi) of a·b with k- and j-tiling. The
// loop nest keeps one MatMulBlock² tile of b hot across every row of the
// block; per output element the k terms are still visited in ascending
// order (ascending k-block, then ascending k within the block), matching
// the untiled kernel term for term.
func matMulRows(out, a, b *Mat, lo, hi int) {
	for kb := 0; kb < a.Cols; kb += MatMulBlock {
		kend := min(kb+MatMulBlock, a.Cols)
		for jb := 0; jb < b.Cols; jb += MatMulBlock {
			jend := min(jb+MatMulBlock, b.Cols)
			for i := lo; i < hi; i++ {
				ai := a.Row(i)
				oi := out.Row(i)[jb:jend]
				for k := kb; k < kend; k++ {
					av := ai[k]
					if av == 0 {
						continue
					}
					bk := b.Row(k)[jb:jend]
					for j, bv := range bk {
						oi[j] += av * bv
					}
				}
			}
		}
	}
}
