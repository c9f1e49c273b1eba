package nn

import (
	"fmt"
	"math"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch to zero mean and
// unit variance, then applies a learnable per-channel affine transform.
// Running statistics collected during training are used at inference time.
//
// BatchNorm2D implements Prunable: pruning channel c zeroes its affine
// parameters (gamma and beta), guaranteeing the normalized output of a
// pruned upstream convolution channel stays exactly zero instead of being
// re-inflated by normalization. Sequential.PruneModelUnit relies on this.
type BatchNorm2D struct {
	name     string
	channels int
	momentum float64
	eps      float64

	// Gamma (scale) and Beta (shift), one per channel.
	Gamma, Beta *Param
	// RunMean and RunVar are the running statistics for inference, carried
	// as Stat parameters so federated averaging keeps the global model's
	// inference statistics consistent with its aggregated weights.
	RunMean, RunVar *Param

	pruned []bool

	// evalReuse routes inference outputs through the scratch arena
	// (Sequential.SetEvalReuse).
	evalReuse bool

	// frozen makes training-mode forward/backward use the running
	// statistics as constants: no batch statistics, no stat updates, and a
	// simplified backward. Trigger reverse-engineering (Neural Cleanse)
	// differentiates through a frozen model.
	frozen bool

	// Caches from the last training forward pass.
	xhat       *tensor.Tensor
	invStd     []float64
	n          int // batch size of cached pass
	hw         int // spatial size of cached pass
	frozenPass bool

	// scratch holds the reusable train-mode output, xhat cache and
	// backward dx buffers. Not cloned or serialized.
	scratch tensor.Arena
}

var _ Prunable = (*BatchNorm2D)(nil)

// NewBatchNorm2D builds a batch-normalization layer for the given channel
// count with momentum 0.9 for the running statistics.
func NewBatchNorm2D(name string, channels int) *BatchNorm2D {
	if channels <= 0 {
		panic(fmt.Sprintf("nn: %s: non-positive channel count %d", name, channels))
	}
	l := &BatchNorm2D{
		name:     name,
		channels: channels,
		momentum: 0.9,
		eps:      1e-5,
		Gamma:    newParam(name+".gamma", channels),
		Beta:     newParam(name+".beta", channels),
		RunMean:  newParam(name+".runmean", channels),
		RunVar:   newParam(name+".runvar", channels),
		pruned:   make([]bool, channels),
	}
	l.Gamma.Value.Fill(1)
	l.Gamma.NoDecay = true
	l.Beta.NoDecay = true
	l.RunMean.NoDecay, l.RunMean.Stat = true, true
	l.RunVar.NoDecay, l.RunVar.Stat = true, true
	l.RunVar.Value.Fill(1)
	return l
}

// Name implements Layer.
func (l *BatchNorm2D) Name() string { return l.name }

// Freeze pins the layer to its running statistics: training-mode passes
// stop computing batch statistics and stop updating the running ones, and
// Backward treats the statistics as constants.
func (l *BatchNorm2D) Freeze() { l.frozen = true }

// Forward implements Layer for x of shape (N, C, H, W).
func (l *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != l.channels {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N %d H W]", l.name, x.Shape(), l.channels))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	// The training output and xhat cache are reused across steps;
	// inference passes allocate fresh because callers may retain the
	// result.
	var out *tensor.Tensor
	if train {
		out = l.scratch.GetLike("out", x)
		l.xhat = l.scratch.GetLike("xhat", x)
		if len(l.invStd) != l.channels {
			l.invStd = make([]float64, l.channels)
		}
		l.n, l.hw = n, hw
		l.frozenPass = l.frozen
	} else if l.evalReuse {
		out = l.scratch.GetLike("eout", x)
	} else {
		out = tensor.New(n, l.channels, h, w)
	}
	cnt := float64(n * hw)
	for c := 0; c < l.channels; c++ {
		var mean, variance float64
		if train && !l.frozen {
			sum := 0.0
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					sum += x.Data[base+i]
				}
			}
			mean = sum / cnt
			ss := 0.0
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					d := x.Data[base+i] - mean
					ss += d * d
				}
			}
			variance = ss / cnt
			l.RunMean.Value.Data[c] = l.momentum*l.RunMean.Value.Data[c] + (1-l.momentum)*mean
			l.RunVar.Value.Data[c] = l.momentum*l.RunVar.Value.Data[c] + (1-l.momentum)*variance
		} else {
			mean, variance = l.RunMean.Value.Data[c], l.RunVar.Value.Data[c]
			if variance < 0 {
				// Aggregated or adversarially scaled statistics can go
				// negative; clamp rather than produce NaNs.
				variance = 0
			}
		}
		inv := 1 / math.Sqrt(variance+l.eps)
		g, b := l.Gamma.Value.Data[c], l.Beta.Value.Data[c]
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				xh := (x.Data[base+i] - mean) * inv
				if train {
					l.xhat.Data[base+i] = xh
				}
				out.Data[base+i] = g*xh + b
			}
		}
		if train {
			l.invStd[c] = inv
		}
	}
	return out
}

// Backward implements Layer using the standard batch-norm gradient.
func (l *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.xhat == nil {
		panic(fmt.Sprintf("nn: %s: Backward without training Forward", l.name))
	}
	n, hw := l.n, l.hw
	cnt := float64(n * hw)
	dx := l.scratch.GetLike("dx", dout)
	if l.frozenPass {
		// Statistics are constants: dx = dout · γ · invStd.
		for c := 0; c < l.channels; c++ {
			g := l.Gamma.Value.Data[c] * l.invStd[c]
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					dx.Data[base+i] = dout.Data[base+i] * g
				}
			}
		}
		return dx
	}
	for c := 0; c < l.channels; c++ {
		var dg, db, sumDxh, sumDxhXh float64
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				d := dout.Data[base+i]
				xh := l.xhat.Data[base+i]
				dg += d * xh
				db += d
			}
		}
		l.Gamma.Grad.Data[c] += dg
		l.Beta.Grad.Data[c] += db
		g := l.Gamma.Value.Data[c]
		// dxhat = dout * gamma; reuse dg/db sums scaled by gamma.
		sumDxh = db * g
		sumDxhXh = dg * g
		inv := l.invStd[c]
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				dxh := dout.Data[base+i] * g
				xh := l.xhat.Data[base+i]
				dx.Data[base+i] = inv / cnt * (cnt*dxh - sumDxh - xh*sumDxhXh)
			}
		}
	}
	l.maskGrads()
	return dx
}

// Params implements Layer. Running statistics are included as Stat
// parameters (skipped by the optimizer, transported by aggregation).
func (l *BatchNorm2D) Params() []*Param {
	return []*Param{l.Gamma, l.Beta, l.RunMean, l.RunVar}
}

// CloneLayer implements Layer. Running statistics are copied so a cloned
// model evaluates identically.
func (l *BatchNorm2D) CloneLayer() Layer {
	return &BatchNorm2D{
		name:     l.name,
		channels: l.channels,
		momentum: l.momentum,
		eps:      l.eps,
		Gamma:    l.Gamma.clone(),
		Beta:     l.Beta.clone(),
		RunMean:  l.RunMean.clone(),
		RunVar:   l.RunVar.clone(),
		pruned:   append([]bool(nil), l.pruned...),
		frozen:   l.frozen,
	}
}

// Units implements Prunable.
func (l *BatchNorm2D) Units() int { return l.channels }

// PruneUnit implements Prunable: the channel's affine output is pinned to
// zero.
func (l *BatchNorm2D) PruneUnit(i int) {
	if i < 0 || i >= l.channels {
		panic(fmt.Sprintf("nn: %s: PruneUnit(%d) out of range [0,%d)", l.name, i, l.channels))
	}
	l.pruned[i] = true
	l.EnforceMask()
}

// UnitPruned implements Prunable.
func (l *BatchNorm2D) UnitPruned(i int) bool { return l.pruned[i] }

// PrunedCount implements Prunable.
func (l *BatchNorm2D) PrunedCount() int {
	n := 0
	for _, p := range l.pruned {
		if p {
			n++
		}
	}
	return n
}

// EnforceMask implements Prunable.
func (l *BatchNorm2D) EnforceMask() {
	for c, p := range l.pruned {
		if p {
			l.Gamma.Value.Data[c] = 0
			l.Beta.Value.Data[c] = 0
		}
	}
}

// AppendUnitState implements Prunable: the channel's affine parameters
// (the running statistics are not touched by pruning).
func (l *BatchNorm2D) AppendUnitState(dst []float64, i int) []float64 {
	return append(dst, l.Gamma.Value.Data[i], l.Beta.Value.Data[i])
}

// SetUnitState implements Prunable.
func (l *BatchNorm2D) SetUnitState(i int, vals []float64, pruned bool) {
	if len(vals) != 2 {
		panic(fmt.Sprintf("nn: %s: unit state length %d, want 2", l.name, len(vals)))
	}
	l.Gamma.Value.Data[i] = vals[0]
	l.Beta.Value.Data[i] = vals[1]
	l.pruned[i] = pruned
}

// setEvalReuse implements evalReuser.
func (l *BatchNorm2D) setEvalReuse(on bool) { l.evalReuse = on }

func (l *BatchNorm2D) maskGrads() {
	for c, p := range l.pruned {
		if p {
			l.Gamma.Grad.Data[c] = 0
			l.Beta.Grad.Data[c] = 0
		}
	}
}
