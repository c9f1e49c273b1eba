package tensor

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// TestMatMulTransBIntoMatchesAllocating pins the in-place kernel's
// bit-identity contract against the allocating variant across shapes large
// enough to cross the parallel cutoff and worker counts 1, 2 and 8. The
// destination is pre-filled with garbage: every cell must be overwritten,
// also when k is 0 and the product is all zeros.
func TestMatMulTransBIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 0, 3}, {3, 5, 4}, {64, 96, 80}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(rng, m, k)
		b := randMat(rng, n, k)
		want := MatMulTransB(a, b)
		for _, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			dst := New(m, n)
			dst.Fill(99)
			MatMulTransBInto(dst, a, b)
			parallel.SetWorkers(prev)
			if !dst.Equal(want, 0) {
				t.Fatalf("m=%d k=%d n=%d workers=%d: MatMulTransBInto not bit-identical", m, k, n, w)
			}
		}
	}
}

// TestMatMulTransAIntoMatchesAllocating is the aᵀ·b sibling. The kernel
// accumulates, so the pre-filled destination also checks the implicit Zero.
func TestMatMulTransAIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, dims := range [][3]int{{1, 1, 1}, {4, 6, 3}, {80, 64, 96}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(rng, k, m)
		b := randMat(rng, k, n)
		want := MatMulTransA(a, b)
		for _, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			dst := New(m, n)
			dst.Fill(99)
			MatMulTransAInto(dst, a, b)
			parallel.SetWorkers(prev)
			if !dst.Equal(want, 0) {
				t.Fatalf("m=%d k=%d n=%d workers=%d: MatMulTransAInto not bit-identical", m, k, n, w)
			}
		}
	}
}

func TestMatMulIntoBadDstPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MatMulInto":       func() { MatMulInto(New(2, 3), New(2, 2), New(2, 2)) },
		"MatMulTransBInto": func() { MatMulTransBInto(New(3, 2), New(2, 4), New(3, 4)) },
		"MatMulTransAInto": func() { MatMulTransAInto(New(2, 2), New(4, 2), New(4, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with wrong dst shape did not panic", name)
				}
			}()
			f()
		}()
	}
}
