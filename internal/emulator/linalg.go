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

// SVDResult holds a thin singular value decomposition A = U diag(S) V†.
type SVDResult struct {
	U *Matrix   // m×r
	S []float64 // r, descending
	V *Matrix   // n×r (columns are right singular vectors)
}

// SVD computes the thin singular value decomposition of A by one-sided
// (Hestenes) Jacobi: plane rotations orthogonalize A's columns in place and
// the same rotations build V, so A is never squared and each singular value
// keeps its relative accuracy down to ε·σ₁ (Demmel & Veselić, SIAM J. Matrix
// Anal. Appl. 13(4), 1992).
func SVD(a *Matrix) SVDResult {
	m, n := a.Rows, a.Cols
	if m < n {
		// Decompose the adjoint and swap factors: A† = U' S V'† ⇒ A = V' S U'†.
		res := SVD(a.ConjTranspose())
		return SVDResult{U: res.V, S: res.S, V: res.U}
	}
	// w holds A's columns and v holds V's, both column-major, so a rotation
	// works on two contiguous slices.
	w := make([]complex128, m*n)
	for i := 0; i < m; i++ {
		for j, x := range a.Data[i*n : (i+1)*n] {
			w[j*m+i] = x
		}
	}
	v := Identity(n).Data // symmetric, so column-major as it stands
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			wp, vp := w[p*m:(p+1)*m], v[p*n:(p+1)*n]
			for q := p + 1; q < n; q++ {
				wq, vq := w[q*m:(q+1)*m], v[q*n:(q+1)*n]
				var alpha, beta float64
				var gamma complex128
				for k, x := range wp {
					y := wq[k]
					alpha += real(x)*real(x) + imag(x)*imag(x)
					beta += real(y)*real(y) + imag(y)*imag(y)
					gamma += cmplx.Conj(x) * y
				}
				g := cmplx.Abs(gamma)
				if g <= 1e-15*math.Sqrt(alpha*beta) {
					continue
				}
				rotated = true
				// With e = γ/|γ|, the pair (w_p, ē·w_q) has the real inner
				// product |γ|; the real Jacobi rotation (c, s) zeroes it.
				zeta := (beta - alpha) / (2 * g)
				t := math.Copysign(1/(math.Abs(zeta)+math.Sqrt(1+zeta*zeta)), zeta)
				c := 1 / math.Sqrt(1+t*t)
				se := complex(c*t, 0) * cmplx.Conj(gamma/complex(g, 0))
				rotate(wp, wq, c, se)
				rotate(vp, vq, c, se)
			}
		}
		if !rotated {
			break
		}
	}
	s := make([]float64, n)
	for j := range s {
		for _, x := range w[j*m : (j+1)*m] {
			s[j] += real(x)*real(x) + imag(x)*imag(x)
		}
		s[j] = math.Sqrt(s[j])
	}
	res := SVDResult{U: NewMatrix(m, n), S: make([]float64, n), V: NewMatrix(n, n)}
	for col, src := range sortDescending(s) {
		sigma := s[src]
		res.S[col] = sigma
		if sigma > 0 { // a zero column leaves U's column zero
			for row, x := range w[src*m : (src+1)*m] {
				res.U.Data[row*n+col] = complex(real(x)/sigma, imag(x)/sigma)
			}
		}
		for row, x := range v[src*n : (src+1)*n] {
			res.V.Data[row*n+col] = x
		}
	}
	return res
}

// rotate applies one unitary Jacobi rotation to a column pair:
// x ← c·x − s·y and y ← s̄·x + c·y, where s carries the phase ē.
func rotate(x, y []complex128, c float64, s complex128) {
	sbar := cmplx.Conj(s)
	for k, xk := range x {
		yk := y[k]
		x[k] = complex(c*real(xk), c*imag(xk)) - s*yk
		y[k] = sbar*xk + complex(c*real(yk), c*imag(yk))
	}
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
