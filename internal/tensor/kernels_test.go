package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tiled kernels are only allowed to reorder which output cells are
// computed when — never the order of additions within a cell — so for
// finite inputs they must match the pre-tile reference kernels bit for
// bit, on both the pure-Go and the AVX2 path, with or without the
// sparsity the reference kernel's `av == 0` skip exploits. These tests pin
// that contract on shapes chosen to straddle every blocking boundary (the
// 4-row block, the 8-column strip, the KC panel edge, the NC column edge)
// plus the degenerate vector shapes.

// avx2Available records whether this CPU runs the micro-kernel, before
// any test flips useAVX2.
var avx2Available = useAVX2

// kernelPaths lists the tiled-kernel paths this machine can run: the
// pure-Go loops always, and the AVX2 micro-kernel where the CPU has it.
func kernelPaths() []bool {
	if avx2Available {
		return []bool{false, true}
	}
	return []bool{false}
}

func pathName(simd bool) string {
	if simd {
		return "avx2"
	}
	return "go"
}

// withKernelPath runs f with useAVX2 pinned to simd.
func withKernelPath(simd bool, f func()) {
	prev := useAVX2
	useAVX2 = simd
	defer func() { useAVX2 = prev }()
	f()
}

// kernelShapes crosses the 4-row block, the 8-column strip and the panel
// extents (kc=128, nc=256) with off-by-one neighbours, plus degenerate
// 1×k×1 and m×1×n shapes.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 300, 1},
	{5, 1, 9},
	{3, 5, 7},
	{4, 4, 4},
	{4, 3, 8},
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
func zeroChannels(data []float64, m, k, ch int) {
	for i := 0; i < m; i += ch {
		row := data[i*k : (i+1)*k]
		for j := range row {
			row[j] = 0
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// checkKernelsMatchRef runs all three tiled kernels against their
// reference counterparts on the given operands and fails on any bit
// difference. a is m×k (and reinterpreted as k×m for TransA via a
// separately generated operand), b is sized per kernel.
func checkKernelsMatchRef(t *testing.T, rng *rand.Rand, m, k, n int, sparse bool) {
	t.Helper()
	a := randSlice(rng, m*k)  // m×k for MatMul / TransB's a
	bN := randSlice(rng, k*n) // k×n for MatMul / TransA's b
	bT := randSlice(rng, n*k) // n×k for TransB
	aT := randSlice(rng, k*m) // k×m for TransA
	if sparse {
		zeroChannels(a, m, k, 2)
		zeroChannels(bN, k, n, 3)
		zeroChannels(bT, n, k, 2)
		zeroChannels(aT, k, m, 3)
	}

	got := make([]float64, m*n)
	want := make([]float64, m*n)
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
func diffIdx(t *testing.T, kernel string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d differs: tiled %v, reference %v", kernel, i, got[i], want[i])
		}
	}
}

func TestTiledMatchesReferenceFloat64(t *testing.T) {
	for _, simd := range kernelPaths() {
		rng := rand.New(rand.NewSource(7))
		withKernelPath(simd, func() {
			for _, s := range kernelShapes {
				checkKernelsMatchRef(t, rng, s.m, s.k, s.n, false)
				checkKernelsMatchRef(t, rng, s.m, s.k, s.n, true)
			}
		})
	}
}

// simdShapes are the m×k×n products TestSIMDMatchesGoKernels compares the
// two paths on: every product the SmallCNN workloads run (conv per image,
// dense per batch of 20), then the edges of the 4×8 block and the KC
// panel. Each shape runs through all three kernels.
var simdShapes = []struct {
	name    string
	m, k, n int
}{
	{"conv1 8x9x256", 8, 9, 256},
	{"conv2 16x72x64", 16, 72, 64},
	{"conv2 dW 16x64x72T", 16, 64, 72},
	{"conv1 dW 8x256x9T", 8, 256, 9},
	{"conv2 dcol 72x16x64TA", 72, 16, 64},
	{"fc1 20x256x64", 20, 256, 64},
	{"fc1 dW 256x20x64TA", 256, 20, 64},
	{"fc1 dx 20x64x256T", 20, 64, 256},
	{"fc2 20x64x10", 20, 64, 10},
	{"n%8 4x5x13", 4, 5, 13},
	{"n<8 8x16x7", 8, 16, 7},
	{"m%4 7x9x16", 7, 9, 16},
	{"m<4 3x20x8", 3, 20, 8},
	{"k=0 4x0x9", 4, 0, 9},
	{"k=1 8x1x8", 8, 1, 8},
	{"k=1 odd 5x1x17", 5, 1, 17},
	{"k=KC 8x128x8", 8, 128, 8},
	{"k=KC+1 12x129x24", 12, 129, 24},
	{"k=2KC+1 9x257x17", 9, 257, 17},
	{"parallel tails 50x130x21", 50, 130, 21},
}

// TestSIMDMatchesGoKernels runs the production entry points on the AVX2
// path and the pure-Go path at 1, 2 and 8 workers and requires every cell
// to match bit for bit. Destinations start as garbage, so the zeroing of
// the accumulating kernels and the overwrite of TransB are checked too.
func TestSIMDMatchesGoKernels(t *testing.T) {
	if !avx2Available {
		t.Skip("CPU has no AVX2: only the pure-Go kernels run")
	}
	rng := rand.New(rand.NewSource(43))
	for _, s := range simdShapes {
		a := randMat(rng, s.m, s.k)
		aT := randMat(rng, s.k, s.m)
		b := randMat(rng, s.k, s.n)
		bT := randMat(rng, s.n, s.k)
		zeroChannels(a.Data, s.m, s.k, 3)
		for _, kn := range []struct {
			name string
			f    func(dst *Tensor)
		}{
			{"MatMulInto", func(dst *Tensor) { MatMulInto(dst, a, b) }},
			{"MatMulTransAInto", func(dst *Tensor) { MatMulTransAInto(dst, aT, b) }},
			{"MatMulTransBInto", func(dst *Tensor) { MatMulTransBInto(dst, a, bT) }},
		} {
			for _, w := range []int{1, 2, 8} {
				run := func(simd bool) *Tensor {
					dst := New(s.m, s.n)
					dst.Fill(math.NaN())
					withKernelPath(simd, func() { withWorkers(t, w, func() { kn.f(dst) }) })
					return dst
				}
				want, got := run(false), run(true)
				diffIdx(t, fmt.Sprintf("%s %s workers=%d", s.name, kn.name, w), got.Data, want.Data)
			}
		}
	}
}

// TestKernel4x8RejectsShortOperands pins the Go-side guard of the
// assembly: a block whose last row, panel row or strip row would fall
// past its slice panics in Go before the micro-kernel runs.
func TestKernel4x8RejectsShortOperands(t *testing.T) {
	if !avx2Available {
		t.Skip("CPU has no AVX2: the micro-kernel never runs")
	}
	const ld, kp = 8, 3
	full := func(n int) []float64 { return make([]float64, n) }
	for name, f := range map[string]func(){
		"short dst":   func() { kernel4x8(full(3*ld+7), ld, full(4*kp), kp, 1, full(kp*8), 8, kp) },
		"short a":     func() { kernel4x8(full(4*ld), ld, full(4*kp-1), kp, 1, full(kp*8), 8, kp) },
		"short b":     func() { kernel4x8(full(4*ld), ld, full(4*kp), kp, 1, full(kp*8-1), 8, kp) },
		"empty panel": func() { kernel4x8(full(4*ld), ld, full(4*kp), kp, 1, full(kp*8), 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: kernel4x8 did not panic", name)
				}
			}()
			f()
		}()
	}
	// The exact fit runs.
	kernel4x8(full(3*ld+8), ld, full(3*kp+kp), kp, 1, full((kp-1)*8+8), 8, kp)
}
