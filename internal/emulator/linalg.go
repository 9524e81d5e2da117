// Package emulator implements the quantum-execution substrate of the stack:
// an exact state-vector emulator for analog (Rydberg-Hamiltonian) and digital
// programs, and a matrix-product-state (MPS, "tensor network") emulator with
// configurable bond dimension, reproducing the paper's emulator suite [5]
// including the χ=1 product-state mode used to mock arbitrarily large QPUs in
// end-to-end tests (paper §3.2, footnote 3).
package emulator

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Mul returns m × b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("emulator: matmul shape mismatch %dx%d × %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// ConjTranspose returns the Hermitian adjoint m†.
func (m *Matrix) ConjTranspose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// hermitianEigen diagonalizes a Hermitian matrix in place using the cyclic
// complex Jacobi method. It returns the eigenvalues (unsorted) and the
// unitary V whose columns are the corresponding eigenvectors (A = V Λ V†).
// Only the provided matrix's Hermitian part is used.
func hermitianEigen(a *Matrix) ([]float64, *Matrix) {
	n := a.Rows
	if n != a.Cols {
		panic("emulator: hermitianEigen requires a square matrix")
	}
	v := Identity(n)
	if n == 1 {
		return []float64{real(a.At(0, 0))}, v
	}
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += cmplx.Abs(a.At(i, j))
			}
		}
		if off < 1e-13*float64(n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if cmplx.Abs(apq) < 1e-300 {
					continue
				}
				app := real(a.At(p, p))
				aqq := real(a.At(q, q))
				// Phase that makes the off-diagonal real:
				// apq = |apq| e^{iφ}; work with the rotated basis.
				absApq := cmplx.Abs(apq)
				phase := apq / complex(absApq, 0)
				// Classic symmetric Jacobi angle.
				theta := 0.5 * math.Atan2(2*absApq, app-aqq)
				c := math.Cos(theta)
				s := math.Sin(theta)
				// Rotation: col_p' = c·col_p + s·e^{-iφ}·col_q
				//           col_q' = -s·e^{iφ}·col_p + c·col_q
				sp := complex(s, 0) * cmplx.Conj(phase)
				sq := complex(s, 0) * phase
				cc := complex(c, 0)
				// Update rows p and q of A: A ← J† A J.
				for k := 0; k < n; k++ {
					akp := a.At(k, p)
					akq := a.At(k, q)
					a.Set(k, p, cc*akp+sp*akq)
					a.Set(k, q, -sq*akp+cc*akq)
				}
				for k := 0; k < n; k++ {
					apk := a.At(p, k)
					aqk := a.At(q, k)
					a.Set(p, k, cc*apk+cmplx.Conj(sp)*aqk)
					a.Set(q, k, -cmplx.Conj(sq)*apk+cc*aqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, cc*vkp+sp*vkq)
					v.Set(k, q, -sq*vkp+cc*vkq)
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := range eig {
		eig[i] = real(a.At(i, i))
	}
	return eig, v
}

// SVDResult holds a thin singular value decomposition A = U diag(S) V†.
type SVDResult struct {
	U *Matrix   // m×r
	S []float64 // r, descending
	V *Matrix   // n×r (columns are right singular vectors)
}

// SVD computes the thin singular value decomposition of A via the Hermitian
// eigendecomposition of A†A (or AA† when that is smaller). It is numerically
// adequate for MPS truncation, where only the relative magnitude of singular
// values matters and the spectrum spans at most ~1e-8 of dynamic range.
func SVD(a *Matrix) SVDResult {
	m, n := a.Rows, a.Cols
	if m >= n {
		// Eigen-decompose the n×n Gram matrix A†A.
		gram := a.ConjTranspose().Mul(a)
		eig, v := hermitianEigen(gram)
		order := sortDescending(eig)
		r := len(eig)
		s := make([]float64, r)
		vSorted := NewMatrix(n, r)
		for col, src := range order {
			ev := eig[src]
			if ev < 0 {
				ev = 0
			}
			s[col] = math.Sqrt(ev)
			for row := 0; row < n; row++ {
				vSorted.Set(row, col, v.At(row, src))
			}
		}
		// U = A V Σ⁻¹, guarding zero singular values.
		av := a.Mul(vSorted)
		u := NewMatrix(m, r)
		for col := 0; col < r; col++ {
			if s[col] > 1e-150 {
				inv := complex(1/s[col], 0)
				for row := 0; row < m; row++ {
					u.Set(row, col, av.At(row, col)*inv)
				}
			}
		}
		return SVDResult{U: u, S: s, V: vSorted}
	}
	// m < n: decompose the adjoint and swap factors.
	res := SVD(a.ConjTranspose()) // A† = U' S V'†  ⇒  A = V' S U'†
	return SVDResult{U: res.V, S: res.S, V: res.U}
}

// sortDescending returns the index order that sorts vals descending.
func sortDescending(vals []float64) []int {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	// Insertion sort: spectra here are small (≤ 2χ entries).
	for i := 1; i < len(order); i++ {
		j := i
		for j > 0 && vals[order[j-1]] < vals[order[j]] {
			order[j-1], order[j] = order[j], order[j-1]
			j--
		}
	}
	return order
}

// TruncateSVD keeps at most maxRank singular values and drops any whose
// squared weight relative to the total falls below cutoff. It returns the
// truncated factors and the discarded squared weight (the truncation error).
func TruncateSVD(res SVDResult, maxRank int, cutoff float64) (SVDResult, float64) {
	total := 0.0
	for _, s := range res.S {
		total += s * s
	}
	if total == 0 {
		total = 1
	}
	keep := 0
	kept := 0.0
	for _, s := range res.S {
		if maxRank > 0 && keep >= maxRank {
			break
		}
		if s*s/total < cutoff && keep > 0 {
			break
		}
		kept += s * s
		keep++
	}
	if keep == 0 {
		keep = 1
		kept = res.S[0] * res.S[0]
	}
	u := NewMatrix(res.U.Rows, keep)
	v := NewMatrix(res.V.Rows, keep)
	for row := 0; row < u.Rows; row++ {
		for col := 0; col < keep; col++ {
			u.Set(row, col, res.U.At(row, col))
		}
	}
	for row := 0; row < v.Rows; row++ {
		for col := 0; col < keep; col++ {
			v.Set(row, col, res.V.At(row, col))
		}
	}
	return SVDResult{U: u, S: append([]float64(nil), res.S[:keep]...), V: v}, (total - kept) / total
}
