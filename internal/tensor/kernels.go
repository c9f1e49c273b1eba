package tensor

// This file holds the numeric inner loops of the package. Three kernel
// families coexist:
//
//   - Reference kernels (suffix Ref): the pre-tile loops exactly as they
//     shipped in PR 1/2, including the `av == 0` sparsity skip. They are
//     the semantic ground truth the identity tests and the fuzz harness
//     compare against, and are not called from the production paths.
//   - Tiled kernels (suffix Tiled): cache-blocked KC panels around a
//     4-row-unrolled pure-Go loop. The sparsity branch is deliberately
//     absent — a data-dependent branch in the innermost loop defeats
//     instruction-level parallelism. Skipping a zero product only ever
//     adds ±0.0 to the accumulator, which cannot change a finite sum, so
//     the tiled kernels remain bit-identical to the reference for the
//     finite inputs the training stack produces (including exactly-zero
//     pruned channels and ReLU zeros).
//   - The SIMD micro-kernel (kernels_amd64.s): on amd64 CPUs with AVX2 the
//     tiled kernels hand every full 4-row × 8-column block of a panel to
//     it, and keep the panels, the n%8 and m%4 tails, the row blocking and
//     the bounds checks in Go. It holds the block in registers across the
//     panel — the register-blocked shape that lost to the j-innermost loop
//     when written in scalar Go, but wins 3–6× with four doubles per
//     instruction (DESIGN.md §13). useAVX2 selects it once at start-up;
//     without AVX2, and on every other GOARCH, the pure-Go loops run, and
//     the tests use them as the oracle for the assembly.
//
// Bit-identity discipline: for every output cell, contributions are
// accumulated in ascending-p order — the KC panel loop is outermost and
// panels resume from the stored partial sum, so splitting k into panels
// replays the exact same sequence of rounded additions as one straight
// pass. Row blocking (parallel.ForBlocks), column blocking and the split
// between micro-kernel and Go tails only change *which* cells are
// computed when, never the order within a cell. The micro-kernel keeps
// the order too: it multiplies with VMULPD and adds with VADDPD, never a
// fused multiply-add, and runs p upward through the panel. That is why
// serial, parallel, SIMD and reference results match bit for bit.

// Cache-tile extents. The Go inner loop touches one b-panel row plus four
// destination row segments, each nc elements wide: 5·nc elements must sit
// in L1 (~10 KiB), while a full kc×nc b-panel (~256 KiB) stays
// L2-resident across the row sweep. The micro-kernel walks one kc×8 strip
// of the panel (8 KiB) across every 4-row block, so the strip stays in L1.
const (
	kc = 128
	nc = 256
)

// matmulTiled accumulates rows [lo,hi) of a (m×k) times b (k×n) into dst
// (m×n). dst rows must be zeroed by the caller (the Into wrappers zero
// the whole destination).
func matmulTiled(dst, a, b []float64, lo, hi, k, n int) {
	matmulAccTiled(dst, a, b, lo, hi, k, n, k, 1)
}

// matmulTransATiled accumulates output rows [lo,hi) of aᵀ·b for a (k×m)
// and b (k×n) into dst (m×n), which the caller has zeroed. Output row i
// is column i of a, so the four rows of a block read four adjacent a
// elements per p instead of four strided rows.
func matmulTransATiled(dst, a, b []float64, lo, hi, k, m, n int) {
	matmulAccTiled(dst, a, b, lo, hi, k, n, 1, m)
}

// matmulAccTiled accumulates rows [lo,hi) of x·b into dst (·×n), where x
// is the left factor stored in a with x[i][p] = a[i*ai+p*ap]: (ai, ap) is
// (k, 1) for a·b and (1, m) for aᵀ·b. With AVX2, each panel's full 4×8
// blocks go to the micro-kernel, one 8-column strip at a time, and
// accumulateCells finishes the n%8 columns and the m%4 rows; otherwise
// accumulateCells covers each panel in nc-wide column blocks.
func matmulAccTiled(dst, a, b []float64, lo, hi, k, n, ai, ap int) {
	for pc := 0; pc < k; pc += kc {
		pe := min(pc+kc, k)
		if !useAVX2 {
			for jc := 0; jc < n; jc += nc {
				accumulateCells(dst, a, b, lo, hi, jc, min(jc+nc, n), pc, pe, n, ai, ap)
			}
			continue
		}
		i4, n8 := lo+(hi-lo)&^3, n&^7
		for j := 0; j < n8; j += 8 {
			for i := lo; i < i4; i += 4 {
				kernel4x8(dst[i*n+j:], n, a[i*ai+pc*ap:], ai, ap, b[pc*n+j:], n, pe-pc)
			}
		}
		accumulateCells(dst, a, b, lo, hi, n8, n, pc, pe, n, ai, ap)
		accumulateCells(dst, a, b, i4, hi, 0, n8, pc, pe, n, ai, ap)
	}
}

// accumulateCells adds panel [pc,pe) of x·b (see matmulAccTiled) into the
// cells of dst in rows [lo,hi) and columns [jc,je), four rows at a time.
// j (the contiguous dimension of b and dst) stays innermost: every j
// iteration is an independent update with no loop-carried dependency, so
// the CPU overlaps them freely, and all five streams are sequential.
func accumulateCells(dst, a, b []float64, lo, hi, jc, je, pc, pe, n, ai, ap int) {
	if jc >= je {
		return
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0 := dst[(i+0)*n+jc : (i+0)*n+je]
		d1 := dst[(i+1)*n+jc : (i+1)*n+je]
		d2 := dst[(i+2)*n+jc : (i+2)*n+je]
		d3 := dst[(i+3)*n+jc : (i+3)*n+je]
		for p := pc; p < pe; p++ {
			x := i*ai + p*ap
			axpy4(d0, d1, d2, d3, b[p*n+jc:p*n+je], a[x], a[x+ai], a[x+2*ai], a[x+3*ai])
		}
	}
	for ; i < hi; i++ {
		drow := dst[i*n+jc : i*n+je]
		for p := pc; p < pe; p++ {
			bp := b[p*n+jc : p*n+je]
			av := a[i*ai+p*ap]
			drow := drow[:len(bp)]
			for j, bv := range bp {
				drow[j] += av * bv
			}
		}
	}
}

// axpy4 adds v_r·bp into row segment d_r for r = 0…3. It is kept out of
// line on purpose: inlined into accumulateCells, the panel loop's live
// values push three of the four row pointers out of registers, and the
// pure-Go path runs 10–20% slower on amd64 (MatMulInto, matmul 256³).
//
//go:noinline
func axpy4(d0, d1, d2, d3, bp []float64, v0, v1, v2, v3 float64) {
	d0 = d0[:len(bp)]
	d1 = d1[:len(bp)]
	d2 = d2[:len(bp)]
	d3 = d3[:len(bp)]
	for j, bv := range bp {
		d0[j] += v0 * bv
		d1[j] += v1 * bv
		d2[j] += v2 * bv
		d3[j] += v3 * bv
	}
}

// matmulTransBTiled computes rows [lo,hi) of a (m×k) times bᵀ for b
// (n×k) into dst (m×n), overwriting every cell it covers: it zeroes those
// rows, then accumulates. With AVX2 it packs each 8-row strip of b per
// panel, transposed, into a stack buffer, runs the micro-kernel on every
// full 4×8 block, and leaves the n%8 columns and the m%4 rows to
// dotCells; otherwise dotCells computes every cell.
func matmulTransBTiled(dst, a, b []float64, lo, hi, k, n int) {
	clear(dst[lo*n : hi*n])
	if !useAVX2 {
		dotCells(dst, a, b, lo, hi, 0, n, k, n)
		return
	}
	i4, n8 := lo+(hi-lo)&^3, n&^7
	var strip [kc * 8]float64
	for pc := 0; pc < k; pc += kc {
		pe := min(pc+kc, k)
		for j := 0; j < n8; j += 8 {
			packStrip(&strip, b[j*k+pc:], k, pe-pc)
			for i := lo; i < i4; i += 4 {
				kernel4x8(dst[i*n+j:], n, a[i*k+pc:], k, 1, strip[:], 8, pe-pc)
			}
		}
	}
	dotCells(dst, a, b, lo, hi, n8, n, k, n)
	dotCells(dst, a, b, i4, hi, 0, n8, k, n)
}

// packStrip copies the first kp columns of rows 0–7 of b (row stride k)
// into strip, transposed: strip[p*8+c] = b[c*k+p].
func packStrip(strip *[kc * 8]float64, b []float64, k, kp int) {
	b0 := b[:kp]
	b1 := b[1*k:][:len(b0)]
	b2 := b[2*k:][:len(b0)]
	b3 := b[3*k:][:len(b0)]
	b4 := b[4*k:][:len(b0)]
	b5 := b[5*k:][:len(b0)]
	b6 := b[6*k:][:len(b0)]
	b7 := b[7*k:][:len(b0)]
	for p, v := range b0 {
		s := strip[p*8 : p*8+8]
		s[0], s[1], s[2], s[3] = v, b1[p], b2[p], b3[p]
		s[4], s[5], s[6], s[7] = b4[p], b5[p], b6[p], b7[p]
	}
}

// dotCells adds a·bᵀ into the cells of dst (·×n) in rows [lo,hi) and
// columns [jc,je). Four dot products run simultaneously so one pass over
// the a-row feeds four independent accumulator chains.
func dotCells(dst, a, b []float64, lo, hi, jc, je, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for pc := 0; pc < k; pc += kc {
			pe := min(pc+kc, k)
			ap := arow[pc:pe]
			j := jc
			for ; j+4 <= je; j += 4 {
				b0 := b[(j+0)*k+pc : (j+0)*k+pe]
				b1 := b[(j+1)*k+pc : (j+1)*k+pe]
				b2 := b[(j+2)*k+pc : (j+2)*k+pe]
				b3 := b[(j+3)*k+pc : (j+3)*k+pe]
				s0, s1, s2, s3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
				b0 = b0[:len(ap)]
				b1 = b1[:len(ap)]
				b2 = b2[:len(ap)]
				b3 = b3[:len(ap)]
				for p, av := range ap {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < je; j++ {
				brow := b[j*k+pc : j*k+pe][:len(ap)]
				s := orow[j]
				for p, av := range ap {
					s += av * brow[p]
				}
				orow[j] = s
			}
		}
	}
}

// kernel4x8 runs the micro-kernel on the 4×8 block of dst at d[0] (row
// stride ld): d[r*ld+c] += x[r][p]·b[p*ldb+c] for p = 0, 1, …, kp-1 in
// that order, with x[r][p] = a[r*ai+p*ap]. Every stride is non-negative,
// so the largest index the assembly touches in each operand bounds all
// the others; checking those three here is what keeps it inside the
// slices, and a bad shape panics in Go.
func kernel4x8(d []float64, ld int, a []float64, ai, ap int, b []float64, ldb, kp int) {
	if kp < 1 || ld < 0 || ai < 0 || ap < 0 || ldb < 0 {
		panic("tensor: kernel4x8 bad panel geometry")
	}
	_ = d[3*ld+7]
	_ = a[3*ai+(kp-1)*ap]
	_ = b[(kp-1)*ldb+7]
	kernel4x8AVX2(&d[0], &a[0], &b[0], kp, ld, ai, ap, ldb)
}

// matmulRowsRef is the pre-tile i-k-j reference kernel for rows [lo,hi)
// of a·b, sparsity skip included. Identity tests and the fuzz harness
// compare the tiled kernels against it; production paths never call it.
func matmulRowsRef(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// matmulTransBRowsRef is the pre-tile dot-product reference kernel for
// rows [lo,hi) of a·bᵀ.
func matmulTransBRowsRef(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float64
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}

// matmulTransARowsRef is the pre-tile p-outer reference kernel for output
// rows [lo,hi) of aᵀ·b, sparsity skip included.
func matmulTransARowsRef(dst, a, b []float64, lo, hi, k, m, n int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// im2colKernel unrolls a single C×H×W image into a (C·K·K)×(OutH·OutW)
// column matrix; see Im2Col for the layout contract.
func im2colKernel(img []float64, d ConvDims, dst []float64) {
	if d.Stride == 1 {
		im2colStride1(img, d, dst)
		return
	}
	outH, outW := d.OutH(), d.OutW()
	cols := outH * outW
	row := 0
	for c := 0; c < d.C; c++ {
		chanBase := c * d.H * d.W
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				drow := dst[row*cols : (row+1)*cols]
				i := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.H {
						for ox := 0; ox < outW; ox++ {
							drow[i] = 0
							i++
						}
						continue
					}
					rowBase := chanBase + iy*d.W
					for ox := 0; ox < outW; ox++ {
						ix := ox*d.Stride + kx - d.Pad
						if ix < 0 || ix >= d.W {
							drow[i] = 0
						} else {
							drow[i] = img[rowBase+ix]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// im2colStride1 is im2colKernel for stride-1 convolutions (every conv in
// the shipped models). With ix = ox + (kx-pad), the in-bounds ox range per
// kernel column is a fixed interval, so the inner loop splits into
// zero-fill edges and one straight copy — no per-element bounds branch.
// Output is bit-identical to the generic walk.
func im2colStride1(img []float64, d ConvDims, dst []float64) {
	outH, outW := d.OutH(), d.OutW()
	cols := outH * outW
	row := 0
	for c := 0; c < d.C; c++ {
		chanBase := c * d.H * d.W
		for ky := 0; ky < d.K; ky++ {
			dy := ky - d.Pad
			for kx := 0; kx < d.K; kx++ {
				dxo := kx - d.Pad
				drow := dst[row*cols : (row+1)*cols]
				lo := 0
				if dxo < 0 {
					lo = -dxo
				}
				hi := outW
				if dxo+outW > d.W {
					hi = d.W - dxo
				}
				if hi < lo {
					hi = lo
				}
				for oy := 0; oy < outH; oy++ {
					iy := oy + dy
					seg := drow[oy*outW : (oy+1)*outW]
					if iy < 0 || iy >= d.H {
						for i := range seg {
							seg[i] = 0
						}
						continue
					}
					rowBase := chanBase + iy*d.W + dxo
					for i := 0; i < lo; i++ {
						seg[i] = 0
					}
					copy(seg[lo:hi], img[rowBase+lo:rowBase+hi])
					for i := hi; i < outW; i++ {
						seg[i] = 0
					}
				}
				row++
			}
		}
	}
}

// col2imKernel scatters a column-gradient matrix back into an image
// gradient, accumulating overlaps; see Col2Im for the contract.
func col2imKernel(col []float64, d ConvDims, dst []float64) {
	if d.Stride == 1 {
		col2imStride1(col, d, dst)
		return
	}
	outH, outW := d.OutH(), d.OutW()
	cols := outH * outW
	row := 0
	for c := 0; c < d.C; c++ {
		chanBase := c * d.H * d.W
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				crow := col[row*cols : (row+1)*cols]
				i := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.H {
						i += outW
						continue
					}
					rowBase := chanBase + iy*d.W
					for ox := 0; ox < outW; ox++ {
						ix := ox*d.Stride + kx - d.Pad
						if ix >= 0 && ix < d.W {
							dst[rowBase+ix] += crow[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// col2imStride1 is col2imKernel for stride-1 convolutions, with the same
// interval split as im2colStride1: the accumulation loop runs over the
// fixed in-bounds ox range with no per-element branch. The adds hit each
// destination cell in the same (c, ky, kx, oy, ox) order as the generic
// walk, so the scatter is bit-identical.
func col2imStride1(col []float64, d ConvDims, dst []float64) {
	outH, outW := d.OutH(), d.OutW()
	cols := outH * outW
	row := 0
	for c := 0; c < d.C; c++ {
		chanBase := c * d.H * d.W
		for ky := 0; ky < d.K; ky++ {
			dy := ky - d.Pad
			for kx := 0; kx < d.K; kx++ {
				dxo := kx - d.Pad
				crow := col[row*cols : (row+1)*cols]
				lo := 0
				if dxo < 0 {
					lo = -dxo
				}
				hi := outW
				if dxo+outW > d.W {
					hi = d.W - dxo
				}
				if hi < lo {
					hi = lo
				}
				for oy := 0; oy < outH; oy++ {
					iy := oy + dy
					if iy < 0 || iy >= d.H {
						continue
					}
					seg := crow[oy*outW+lo : oy*outW+hi]
					drow := dst[chanBase+iy*d.W+dxo+lo : chanBase+iy*d.W+dxo+hi]
					for i, v := range seg {
						drow[i] += v
					}
				}
				row++
			}
		}
	}
}
