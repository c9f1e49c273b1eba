package tensor

import "fmt"

// ConvDims describes a 2-D convolution geometry over a C×H×W input.
type ConvDims struct {
	C, H, W int // input channels, height, width
	K       int // square kernel size
	Stride  int
	Pad     int
}

// OutH returns the output height of the convolution.
func (d ConvDims) OutH() int { return (d.H+2*d.Pad-d.K)/d.Stride + 1 }

// OutW returns the output width of the convolution.
func (d ConvDims) OutW() int { return (d.W+2*d.Pad-d.K)/d.Stride + 1 }

// Validate reports an error if the geometry is degenerate.
func (d ConvDims) Validate() error {
	switch {
	case d.C <= 0 || d.H <= 0 || d.W <= 0:
		return fmt.Errorf("tensor: conv dims %+v: non-positive input", d)
	case d.K <= 0 || d.Stride <= 0 || d.Pad < 0:
		return fmt.Errorf("tensor: conv dims %+v: bad kernel/stride/pad", d)
	case d.OutH() <= 0 || d.OutW() <= 0:
		return fmt.Errorf("tensor: conv dims %+v: empty output", d)
	}
	return nil
}

// Im2Col unrolls a single C×H×W image (flat slice img) into dst, a
// (C·K·K)×(OutH·OutW) column matrix in row-major order. Padding positions
// contribute zeros. dst must have length C·K·K·OutH·OutW.
//
// The unrolled layout pairs with a weight matrix of shape (F, C·K·K): the
// convolution then becomes a single MatMul producing (F, OutH·OutW).
func Im2Col(img []float64, d ConvDims, dst []float64) {
	cols := d.OutH() * d.OutW()
	if len(img) != d.C*d.H*d.W {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), d.C*d.H*d.W))
	}
	if len(dst) != d.C*d.K*d.K*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), d.C*d.K*d.K*cols))
	}
	im2colKernel(img, d, dst)
}

// Col2Im scatters a (C·K·K)×(OutH·OutW) column-gradient matrix back into a
// C×H×W image gradient, accumulating overlapping contributions. dst must be
// zeroed by the caller if fresh accumulation is desired.
func Col2Im(col []float64, d ConvDims, dst []float64) {
	cols := d.OutH() * d.OutW()
	if len(dst) != d.C*d.H*d.W {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d, want %d", len(dst), d.C*d.H*d.W))
	}
	if len(col) != d.C*d.K*d.K*cols {
		panic(fmt.Sprintf("tensor: Col2Im col length %d, want %d", len(col), d.C*d.K*d.K*cols))
	}
	col2imKernel(col, d, dst)
}
