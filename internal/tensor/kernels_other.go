//go:build !amd64

package tensor

// useAVX2 is false off amd64: the pure-Go tiled kernels are the only path.
var useAVX2 = false

func kernel4x8AVX2(d, a, b *float64, kp, ld, ai, ap, ldb int) {
	panic("tensor: AVX2 micro-kernel called off amd64")
}
