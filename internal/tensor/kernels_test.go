package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The tiled kernels are only allowed to reorder which output cells are
// computed when — never the order of additions within a cell — so for
// finite inputs they must match the pre-tile reference kernels bit for
// bit, in both precisions, with or without the sparsity the reference
// kernel's `av == 0` skip exploits. These tests pin that contract on
// shapes chosen to straddle every blocking boundary (the 4-row unroll, the
// KC panel edge, the NC column edge) plus the degenerate vector shapes.

// kernelShapes crosses the unroll width (4), the float64 panel extents
// (kc64=128, nc64=256) and the float32 extents (kc32=256, nc32=512) with
// off-by-one neighbours, plus degenerate 1×k×1 and m×1×n shapes.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 300, 1},
	{5, 1, 9},
	{3, 5, 7},
	{4, 4, 4},
	{7, 129, 3},
	{8, 128, 256},
	{9, 127, 255},
	{16, 144, 64},
	{33, 257, 31},
	{130, 129, 258},
	{2, 513, 5},
}

// zeroChannels zeroes every ch-th row of an m×k matrix, mimicking what
// pruning a unit does to the weight and activation matrices (whole
// channels become exactly +0), so the reference kernel's sparsity skip
// actually fires while the tiled kernel multiplies through.
func zeroChannels[E Elem](data []E, m, k, ch int) {
	for i := 0; i < m; i += ch {
		row := data[i*k : (i+1)*k]
		for j := range row {
			row[j] = 0
		}
	}
}

func randSlice[E Elem](rng *rand.Rand, n int) []E {
	s := make([]E, n)
	for i := range s {
		s[i] = E(rng.NormFloat64())
	}
	return s
}

// checkKernelsMatchRef runs all three tiled kernels against their
// reference counterparts on the given operands and fails on any bit
// difference. a64 is m×k (and reinterpreted as k×m for TransA via a
// separately generated operand), b is sized per kernel.
func checkKernelsMatchRef[E Elem](t *testing.T, rng *rand.Rand, m, k, n int, sparse bool) {
	t.Helper()
	a := randSlice[E](rng, m*k)  // m×k for MatMul / TransB's a
	bN := randSlice[E](rng, k*n) // k×n for MatMul / TransA's b
	bT := randSlice[E](rng, n*k) // n×k for TransB
	aT := randSlice[E](rng, k*m) // k×m for TransA
	if sparse {
		zeroChannels(a, m, k, 2)
		zeroChannels(bN, k, n, 3)
		zeroChannels(bT, n, k, 2)
		zeroChannels(aT, k, m, 3)
	}

	got := make([]E, m*n)
	want := make([]E, m*n)
	matmulTiled(got, a, bN, 0, m, k, n)
	matmulRowsRef(want, a, bN, 0, m, k, n)
	diffIdx(t, "matmul", got, want)

	for i := range got {
		got[i], want[i] = 0, 0
	}
	matmulTransBTiled(got, a, bT, 0, m, k, n)
	matmulTransBRowsRef(want, a, bT, 0, m, k, n)
	diffIdx(t, "matmulTransB", got, want)

	for i := range got {
		got[i], want[i] = 0, 0
	}
	matmulTransATiled(got, aT, bN, 0, m, k, m, n)
	matmulTransARowsRef(want, aT, bN, 0, m, k, m, n)
	diffIdx(t, "matmulTransA", got, want)
}

// diffIdx fails on the first bitwise mismatch between got and want.
func diffIdx[E Elem](t *testing.T, kernel string, got, want []E) {
	t.Helper()
	for i := range got {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s: cell %d differs: tiled %v, reference %v", kernel, i, got[i], want[i])
		}
	}
}

func TestTiledMatchesReferenceFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range kernelShapes {
		checkKernelsMatchRef[float64](t, rng, s.m, s.k, s.n, false)
		checkKernelsMatchRef[float64](t, rng, s.m, s.k, s.n, true)
	}
}

func TestTiledMatchesReferenceFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range kernelShapes {
		checkKernelsMatchRef[float32](t, rng, s.m, s.k, s.n, false)
		checkKernelsMatchRef[float32](t, rng, s.m, s.k, s.n, true)
	}
}
