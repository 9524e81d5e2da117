package emulator

import (
	"math"
	"math/cmplx"
	"math/rand"
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

func TestHermitianEigenDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 7)
	eig, v := hermitianEigen(clone(a))
	// Eigenvalues of a diagonal matrix are its diagonal.
	found := map[int]bool{}
	for _, e := range eig {
		for i, want := range []float64{3, -1, 7} {
			if math.Abs(e-want) < 1e-10 {
				found[i] = true
			}
		}
	}
	if len(found) != 3 {
		t.Fatalf("eigenvalues %v", eig)
	}
	// V must be unitary.
	vhv := v.ConjTranspose().Mul(v)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(vhv.At(i, j)-want) > 1e-10 {
				t.Fatalf("V not unitary: V†V[%d,%d] = %v", i, j, vhv.At(i, j))
			}
		}
	}
}

func TestHermitianEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(6)
		// Build a random Hermitian matrix.
		raw := randomMatrix(rng, n, n)
		h := clone(raw)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				h.Set(i, j, (raw.At(i, j)+cmplx.Conj(raw.At(j, i)))/2)
			}
		}
		eig, v := hermitianEigen(clone(h))
		// Reconstruct V Λ V† and compare.
		lam := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			lam.Set(i, i, complex(eig[i], 0))
		}
		rec := v.Mul(lam).Mul(v.ConjTranspose())
		for i := range rec.Data {
			if cmplx.Abs(rec.Data[i]-h.Data[i]) > 1e-8 {
				t.Fatalf("trial %d: reconstruction error %g at %d", trial, cmplx.Abs(rec.Data[i]-h.Data[i]), i)
			}
		}
	}
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
	// The Gram-matrix route loses half the mantissa on tiny singular
	// values, so rank is judged relative to the leading value.
	nonzero := 0
	for _, s := range res.S {
		if s > 1e-6*res.S[0] {
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
