package emulator

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func clone(m *Matrix) *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]complex128(nil), m.Data...)}
}

func TestMatrixMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	got := a.Mul(Identity(4))
	for i := range got.Data {
		if cmplx.Abs(got.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatalf("A·I != A at %d", i)
		}
	}
	got = Identity(4).Mul(a)
	for i := range got.Data {
		if cmplx.Abs(got.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatalf("I·A != A at %d", i)
		}
	}
}

func TestMatrixMulKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := NewMatrix(2, 2)
	b.Set(0, 0, 5)
	b.Set(0, 1, 6)
	b.Set(1, 0, 7)
	b.Set(1, 1, 8)
	c := a.Mul(b)
	want := []complex128{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMatrixMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 2))
}

func TestConjTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	a.Set(0, 1, 2+3i)
	b := a.ConjTranspose()
	if b.Rows != 3 || b.Cols != 2 {
		t.Fatalf("shape %dx%d", b.Rows, b.Cols)
	}
	if b.At(1, 0) != 2-3i {
		t.Fatalf("At(1,0) = %v", b.At(1, 0))
	}
}

// randomUnitary returns an n×n unitary: a complex Gaussian matrix
// orthonormalized twice by modified Gram–Schmidt.
func randomUnitary(rng *rand.Rand, n int) *Matrix {
	q := randomMatrix(rng, n, n)
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < n; j++ {
			for k := 0; k < j; k++ {
				var dot complex128
				for i := 0; i < n; i++ {
					dot += cmplx.Conj(q.At(i, k)) * q.At(i, j)
				}
				for i := 0; i < n; i++ {
					q.Set(i, j, q.At(i, j)-dot*q.At(i, k))
				}
			}
			var norm float64
			for i := 0; i < n; i++ {
				norm += real(q.At(i, j) * cmplx.Conj(q.At(i, j)))
			}
			for i := 0; i < n; i++ {
				q.Set(i, j, q.At(i, j)/complex(math.Sqrt(norm), 0))
			}
		}
	}
	return q
}

// withSpectrum returns P·diag(sigma)·Q† for random m×m and n×n unitaries P
// and Q: an m×n matrix whose singular values are sigma.
func withSpectrum(rng *rand.Rand, m, n int, sigma []float64) *Matrix {
	d := NewMatrix(m, n)
	for k, s := range sigma {
		d.Set(k, k, complex(s, 0))
	}
	return randomUnitary(rng, m).Mul(d).Mul(randomUnitary(rng, n).ConjTranspose())
}

// orthonormalityError returns max |(M†M − I)ᵢⱼ| over the columns i, j < k.
func orthonormalityError(m *Matrix, k int) float64 {
	gram := m.ConjTranspose().Mul(m)
	worst := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			worst = math.Max(worst, cmplx.Abs(gram.At(i, j)-want))
		}
	}
	return worst
}

// TestSVDProperties holds SVD to 1e-12 relative on square, tall and wide
// shapes, for random spectra, rank-deficient ones and graded ones from 1 down
// to 1e-14, where squaring A into A†A would lose every σ below ≈ √ε·σ₁. Each
// prescribed σ must come back within 1e-12·σ₁, A = UΣV† must hold to
// 1e-12·‖A‖, and the columns of U and V kept for σ > 0 must be orthonormal to
// 1e-12. A Gaussian matrix, whose spectrum is not prescribed, must keep its
// singular values under a random unitary change of basis on either side.
func TestSVDProperties(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(11))
	spectra := map[string]func(r int) []float64{
		"random": func(r int) []float64 {
			s := make([]float64, r)
			for k := range s {
				s[k] = 0.1 + rng.Float64()
			}
			return s
		},
		"rank-deficient": func(r int) []float64 {
			s := make([]float64, r)
			for k := 0; k < r/2; k++ {
				s[k] = 0.1 + rng.Float64()
			}
			return s
		},
		"graded": func(r int) []float64 {
			s := make([]float64, r)
			for k := range s {
				s[k] = math.Pow(10, -14*float64(k)/float64(r-1))
			}
			return s
		},
	}
	worst := map[string]float64{}
	for _, shape := range [][2]int{{8, 8}, {16, 16}, {20, 9}, {9, 20}, {32, 24}} {
		m, n := shape[0], shape[1]
		r := min(m, n)
		for _, name := range []string{"random", "rank-deficient", "graded", "gaussian"} {
			var a *Matrix
			var want []float64
			if name == "gaussian" {
				a = randomMatrix(rng, m, n)
				want = SVD(randomUnitary(rng, m).Mul(a).Mul(randomUnitary(rng, n))).S
			} else {
				want = spectra[name](r)
				sort.Sort(sort.Reverse(sort.Float64Slice(want)))
				a = withSpectrum(rng, m, n, want)
			}
			res := SVD(clone(a))
			if len(res.S) != r || res.U.Rows != m || res.U.Cols != r || res.V.Rows != n || res.V.Cols != r {
				t.Fatalf("%dx%d %s: shapes U %dx%d, S %d, V %dx%d", m, n, name,
					res.U.Rows, res.U.Cols, len(res.S), res.V.Rows, res.V.Cols)
			}
			sigmaErr := 0.0
			kept := 0
			for k, s := range res.S {
				sigmaErr = math.Max(sigmaErr, math.Abs(s-want[k])/want[0])
				if s > 0 {
					kept++
				}
			}
			sigma := NewMatrix(r, r)
			for k, s := range res.S {
				sigma.Set(k, k, complex(s, 0))
			}
			diff := res.U.Mul(sigma).Mul(res.V.ConjTranspose())
			for i := range diff.Data {
				diff.Data[i] -= a.Data[i]
			}
			recErr := diff.FrobeniusNorm() / a.FrobeniusNorm()
			orthErr := math.Max(orthonormalityError(res.U, kept), orthonormalityError(res.V, kept))
			if sigmaErr > tol || recErr > tol || orthErr > tol {
				t.Errorf("%dx%d %s: |Δσ|/σ₁ = %.2g, ‖A−UΣV†‖/‖A‖ = %.2g, orthonormality %.2g (all must be ≤ %g)",
					m, n, name, sigmaErr, recErr, orthErr, tol)
			}
			worst[name] = math.Max(worst[name], math.Max(sigmaErr, math.Max(recErr, orthErr)))
		}
	}
	t.Logf("worst error per spectrum: %v", worst)
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][2]int{{4, 4}, {6, 3}, {3, 6}, {1, 5}, {5, 1}, {8, 8}}
	for _, shape := range shapes {
		a := randomMatrix(rng, shape[0], shape[1])
		res := SVD(a)
		// Singular values descending and non-negative.
		for i := 1; i < len(res.S); i++ {
			if res.S[i] > res.S[i-1]+1e-12 {
				t.Fatalf("%v: singular values not descending: %v", shape, res.S)
			}
		}
		for _, s := range res.S {
			if s < 0 {
				t.Fatalf("%v: negative singular value", shape)
			}
		}
		// Reconstruct A = U Σ V†.
		r := len(res.S)
		sigma := NewMatrix(r, r)
		for i := 0; i < r; i++ {
			sigma.Set(i, i, complex(res.S[i], 0))
		}
		rec := res.U.Mul(sigma).Mul(res.V.ConjTranspose())
		for i := range rec.Data {
			if cmplx.Abs(rec.Data[i]-a.Data[i]) > 1e-7 {
				t.Fatalf("%v: reconstruction error %g", shape, cmplx.Abs(rec.Data[i]-a.Data[i]))
			}
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, complex(float64((i+1)*(j+1)), 0))
		}
	}
	res := SVD(a)
	// Rank is judged relative to the leading value: the zero singular
	// values come back at rounding level, ≈ ε·σ₁.
	nonzero := 0
	for _, s := range res.S {
		if s > 1e-12*res.S[0] {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("rank-1 matrix has %d significant singular values: %v", nonzero, res.S)
	}
}

func TestTruncateSVDRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomMatrix(rng, 6, 6)
	res := SVD(a)
	trunc, discarded := TruncateSVD(res, 2, 0)
	if len(trunc.S) != 2 {
		t.Fatalf("kept %d values, want 2", len(trunc.S))
	}
	if discarded <= 0 || discarded >= 1 {
		t.Fatalf("discarded weight %g out of range", discarded)
	}
	if trunc.U.Cols != 2 || trunc.V.Cols != 2 {
		t.Fatalf("factor shapes %d, %d", trunc.U.Cols, trunc.V.Cols)
	}
}

func TestTruncateSVDCutoff(t *testing.T) {
	res := SVDResult{
		U: Identity(3),
		S: []float64{1, 0.1, 1e-5},
		V: Identity(3),
	}
	trunc, discarded := TruncateSVD(res, 0, 1e-8)
	if len(trunc.S) != 2 {
		t.Fatalf("cutoff kept %d values: %v", len(trunc.S), trunc.S)
	}
	if discarded <= 0 {
		t.Fatalf("discarded = %g", discarded)
	}
	// Keeps at least one value even with an aggressive cutoff.
	trunc, _ = TruncateSVD(res, 0, 10)
	if len(trunc.S) != 1 {
		t.Fatalf("aggressive cutoff kept %d", len(trunc.S))
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 4i)
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("norm = %g, want 5", got)
	}
}

func TestSVDUnitaryColumnsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(5)
		cols := 2 + rng.Intn(5)
		a := randomMatrix(rng, rows, cols)
		res := SVD(a)
		// U†U ≈ I on the significant subspace.
		uhu := res.U.ConjTranspose().Mul(res.U)
		for i := 0; i < uhu.Rows; i++ {
			if res.S[i] < 1e-8 {
				continue
			}
			for j := 0; j < uhu.Cols; j++ {
				if res.S[j] < 1e-8 {
					continue
				}
				want := complex128(0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(uhu.At(i, j)-want) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
