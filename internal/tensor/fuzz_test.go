package tensor

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// FuzzMatMulTiled drives the production matmul entry points — tiled
// kernels plus parallel row-blocking — over fuzzer-chosen shapes and
// worker counts, on the pure-Go path and (where the CPU has it) the AVX2
// micro-kernel path, and compares every cell against a naive triple-loop
// oracle written with no blocking at all. Because both sides
// accumulate each output cell in ascending-p order, the comparison is
// exact (bit equality), not tolerance-based: any reordering introduced by
// a future tile-size change would trip it immediately.
//
// The checked-in corpus (testdata/fuzz/FuzzMatMulTiled) pins the
// degenerate shapes the blocking logic is most likely to get wrong:
// 1×k×1 row-vector·column-vector, m×1×n outer products, and shapes
// straddling the kc/nc panel edges, the 4-row block and the 8-column
// strip.
func FuzzMatMulTiled(f *testing.F) {
	f.Add(int64(1), int64(33), int64(1), int64(1), int64(1)) // 1×k×1
	f.Add(int64(17), int64(1), int64(9), int64(2), int64(2)) // m×1×n
	f.Add(int64(129), int64(128), int64(257), int64(3), int64(3))
	f.Add(int64(5), int64(257), int64(513), int64(4), int64(4))
	f.Add(int64(4), int64(4), int64(4), int64(8), int64(5))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw, workersRaw, seed int64) {
		m := int(abs64(mRaw)%48) + 1
		k := int(abs64(kRaw)%300) + 1
		n := int(abs64(nRaw)%520) + 1
		workers := int(abs64(workersRaw)%8) + 1
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		for _, simd := range kernelPaths() {
			withKernelPath(simd, func() {
				fuzzOne(t, rand.New(rand.NewSource(seed)), pathName(simd), m, k, n)
			})
		}
	})
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == math.MinInt64 {
			return 0
		}
		return -v
	}
	return v
}

// fuzzOne checks all three kernels for one shape draw on one path. A
// slice of the operands is zeroed so the sparsity paths and padding-like
// structure are exercised too.
func fuzzOne(t *testing.T, rng *rand.Rand, path string, m, k, n int) {
	a := randSlice(rng, m*k)
	bN := randSlice(rng, k*n)
	bT := randSlice(rng, n*k)
	aT := randSlice(rng, k*m)
	if m > 1 {
		zeroChannels(a, m, k, 2)
	}
	if k > 1 {
		zeroChannels(aT, k, m, 2)
	}

	got := make([]float64, m*n)
	want := make([]float64, m*n)

	matmulInto(got, a, bN, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * bN[p*n+j]
			}
			want[i*n+j] = s
		}
	}
	fuzzDiff(t, path, "matmul", got, want, m, k, n)

	matmulTransBInto(got, a, bT, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * bT[j*k+p]
			}
			want[i*n+j] = s
		}
	}
	fuzzDiff(t, path, "matmulTransB", got, want, m, k, n)

	for i := range got {
		got[i] = 0
	}
	matmulTransAInto(got, aT, bN, k, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += aT[p*m+i] * bN[p*n+j]
			}
			want[i*n+j] = s
		}
	}
	fuzzDiff(t, path, "matmulTransA", got, want, m, k, n)
}

func fuzzDiff(t *testing.T, path, kernel string, got, want []float64, m, k, n int) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %s %dx%dx%d: cell %d differs: tiled %v, naive %v",
				path, kernel, m, k, n, i, got[i], want[i])
		}
	}
}
