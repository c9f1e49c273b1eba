package tensor

// useAVX2 selects the assembly micro-kernel (kernels_amd64.s) for the
// tiled matmuls. It is set once at start-up from CPUID; the tests flip it
// to run the pure-Go path as the assembly's oracle.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches: CPUID.1:ECX OSXSAVE and AVX,
// XCR0 bits 1 and 2 (SSE and AVX state), and CPUID.(7,0):EBX bit 5.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// kernel4x8AVX2 is the micro-kernel behind kernel4x8, which documents it
// and bounds-checks every index it touches.
//
//go:noescape
func kernel4x8AVX2(d, a, b *float64, kp, ld, ai, ap, ldb int)
