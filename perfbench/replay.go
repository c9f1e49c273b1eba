package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

// Replays time one module's public functions at the exact shapes a
// workload drives them with. Each runs until its budget is spent, with a
// floor on the iteration count so short windows still give a median.

const minReplays = 20

// nnLayerNames are the layers of nn.NewSmallCNN, in order.
var nnLayerNames = []string{"conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "flatten", "fc1", "relu3", "fc2"}

var nnInferLayers = []string{"conv1", "conv2", "fc1"}

// replayTrainStep times the training step of fl.Trainer on model m (a
// scratch clone) over one batch of data, both whole — exactly as the
// trainer runs it — and layer by layer. Layer 0's backward is timed as
// BackwardParams minus the other layers' Backward, because the trainer's
// BackwardParams skips the first layer's input gradient that Backward
// would compute.
func replayTrainStep(o *outcome, m *nn.Sequential, data *dataset.Dataset, cfg fl.Config, budget time.Duration) {
	if m.NumLayers() != len(nnLayerNames) {
		panic(fmt.Sprintf("perfbench: model has %d layers, replay expects %d", m.NumLayers(), len(nnLayerNames)))
	}
	n := m.NumLayers()
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	var scratch tensor.Arena
	s := data.Shape
	x := scratch.Get("x", cfg.BatchSize, s.C, s.H, s.W)
	x, labels := data.BatchInto(0, cfg.BatchSize, x, nil)

	normalStep := func() {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		dlogits := scratch.GetLike("dlogits", logits)
		nn.SoftmaxXentInto(dlogits, logits, labels)
		m.BackwardParams(dlogits)
		opt.Step(m)
	}
	for i := 0; i < 3; i++ {
		normalStep()
	}

	// Each iteration times one step whole and one step in parts, so the
	// reconciling ratio pairs the two under the same host conditions.
	var step, loss, sgd, ratio []float64
	fwd := make([][]float64, n)
	bwd := make([][]float64, n)
	end := time.Now().Add(budget)
	for it := 0; it < minReplays || time.Now().Before(end); it++ {
		whole := timeIt(normalStep)
		step = append(step, whole)

		zero := timeIt(m.ZeroGrads)
		parts := 0.0
		act := x
		for i := 0; i < n; i++ {
			d := timeIt(func() { act = m.Layer(i).Forward(act, true) })
			fwd[i] = append(fwd[i], d)
			parts += d
		}
		dlogits := scratch.GetLike("dlogits", act)
		l := timeIt(func() { nn.SoftmaxXentInto(dlogits, act, labels) })
		loss = append(loss, l)
		rest := 0.0
		dout := dlogits
		for i := n - 1; i > 0; i-- {
			d := timeIt(func() { dout = m.Layer(i).Backward(dout) })
			bwd[i] = append(bwd[i], d)
			rest += d
		}
		m.ZeroGrads()
		all := timeIt(func() { m.BackwardParams(dlogits) })
		bwd[0] = append(bwd[0], all-rest)
		s := zero + timeIt(func() { opt.Step(m) })
		sgd = append(sgd, s)
		ratio = append(ratio, (parts+l+all+s)/whole)
	}

	for i, name := range nnLayerNames {
		o.metrics["nn."+name+".fwd_s"] = median(fwd[i])
		o.metrics["nn."+name+".bwd_s"] = median(bwd[i])
	}
	o.metrics["nn.loss_s"] = median(loss)
	o.metrics["nn.sgd_s"] = median(sgd)
	o.metrics["nn.train_step_s"] = median(step)
	o.metrics["nn.layer_sum_ratio"] = median(ratio)
	o.infof("reconcile nn: per-layer parts over the whole train step, median of %d paired steps: %.3f",
		len(step), median(ratio))
}

// replayInference times each layer's eval-mode forward with eval buffers
// reused, as the defense's cached evaluators run it, over one batch.
func replayInference(o *outcome, m *nn.Sequential, data *dataset.Dataset, batch int, budget time.Duration) {
	m.SetEvalReuse(true)
	x, _ := data.Batch(0, batch)
	times := map[string][]float64{}
	end := time.Now().Add(budget)
	for it := 0; it < minReplays || time.Now().Before(end); it++ {
		act := x
		for i := 0; i < m.NumLayers(); i++ {
			t0 := time.Now()
			act = m.Layer(i).Forward(act, false)
			name := nnLayerNames[i]
			times[name] = append(times[name], time.Since(t0).Seconds())
		}
	}
	for _, l := range nnInferLayers {
		o.metrics["nn."+l+".infer_s"] = median(times[l])
	}
}

// kernelShapes are the tensor-call shapes of nn.NewSmallCNN on the
// 1×16×16 MNIST-scale input.
var (
	conv1Dims = tensor.ConvDims{C: 1, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}
	conv2Dims = tensor.ConvDims{C: 8, H: 8, W: 8, K: 3, Stride: 1, Pad: 1}
)

const (
	conv1Filters = 8
	conv2Filters = 16
	fc1In        = 256
	fc1Out       = 64
	fc2Out       = 10
)

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// kernelTimes accumulates per-kernel seconds and matmul multiply-adds for
// one replayed pass.
type kernelTimes struct {
	matmul, transA, transB, im2col, col2im float64
	macs                                   float64
}

func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// convKernels holds one conv layer's replay buffers.
type convKernels struct {
	d        tensor.ConvDims
	filters  int
	img, w   *tensor.Tensor
	col, res *tensor.Tensor
	dW, dcol *tensor.Tensor
	dx       []float64
}

func newConvKernels(rng *rand.Rand, d tensor.ConvDims, filters, batch int) *convKernels {
	fanIn, spatial := d.C*d.K*d.K, d.OutH()*d.OutW()
	return &convKernels{
		d: d, filters: filters,
		img:  randTensor(rng, batch, d.C*d.H*d.W),
		w:    randTensor(rng, filters, fanIn),
		col:  tensor.New(fanIn, spatial),
		res:  randTensor(rng, filters, spatial),
		dW:   tensor.New(filters, fanIn),
		dcol: tensor.New(fanIn, spatial),
		dx:   make([]float64, d.C*d.H*d.W),
	}
}

// forward replays the per-sample im2col + matmul of a batched Conv2D
// forward.
func (c *convKernels) forward(kt *kernelTimes, batch int) {
	per := c.d.C * c.d.H * c.d.W
	for s := 0; s < batch; s++ {
		img := c.img.Data[s*per : (s+1)*per]
		kt.im2col += timeIt(func() { tensor.Im2Col(img, c.d, c.col.Data) })
		kt.matmul += timeIt(func() { tensor.MatMulInto(c.res, c.w, c.col) })
	}
	kt.macs += float64(batch * c.filters * c.col.Dim(0) * c.col.Dim(1))
}

// backward replays the per-sample dW (and, with dx, the Wᵀ·dout and
// col2im) products of a Conv2D backward.
func (c *convKernels) backward(kt *kernelTimes, batch int, dx bool) {
	for s := 0; s < batch; s++ {
		kt.transB += timeIt(func() { tensor.MatMulTransBInto(c.dW, c.res, c.col) })
		if dx {
			kt.transA += timeIt(func() { tensor.MatMulTransAInto(c.dcol, c.w, c.res) })
			kt.col2im += timeIt(func() { tensor.Col2Im(c.dcol.Data, c.d, c.dx) })
		}
	}
}

// denseKernels holds one Dense layer's replay buffers.
type denseKernels struct {
	x, w, out, dW, dx *tensor.Tensor
}

func newDenseKernels(rng *rand.Rand, batch, in, out int) *denseKernels {
	return &denseKernels{
		x:   randTensor(rng, batch, in),
		w:   randTensor(rng, in, out),
		out: randTensor(rng, batch, out),
		dW:  tensor.New(in, out),
		dx:  tensor.New(batch, in),
	}
}

func (d *denseKernels) forward(kt *kernelTimes) {
	kt.matmul += timeIt(func() { tensor.MatMulInto(d.out, d.x, d.w) })
	kt.macs += float64(d.x.Dim(0) * d.x.Dim(1) * d.w.Dim(1))
}

func (d *denseKernels) backward(kt *kernelTimes) {
	kt.transA += timeIt(func() { tensor.MatMulTransAInto(d.dW, d.x, d.out) })
	kt.transB += timeIt(func() { tensor.MatMulTransBInto(d.dx, d.out, d.w) })
}

// replayKernels replays the tensor calls of one pass of nn.NewSmallCNN
// over a batch — forward only (an eval pass), or forward plus the
// backward of a training step, where layer 0 skips its input gradient as
// Sequential.BackwardParams does. Each metric is the median serial time
// of that kernel's calls in one pass; a forward-only replay reports no
// backward kernels.
func replayKernels(o *outcome, batch int, train bool, budget time.Duration) {
	rng := rand.New(rand.NewSource(7))
	c1 := newConvKernels(rng, conv1Dims, conv1Filters, batch)
	c2 := newConvKernels(rng, conv2Dims, conv2Filters, batch)
	f1 := newDenseKernels(rng, batch, fc1In, fc1Out)
	f2 := newDenseKernels(rng, batch, fc1Out, fc2Out)
	var mm, ta, tb, i2c, c2i []float64
	var macs float64
	end := time.Now().Add(budget)
	for it := 0; it < minReplays || time.Now().Before(end); it++ {
		var kt kernelTimes
		c1.forward(&kt, batch)
		c2.forward(&kt, batch)
		f1.forward(&kt)
		f2.forward(&kt)
		if train {
			f2.backward(&kt)
			f1.backward(&kt)
			c2.backward(&kt, batch, true)
			c1.backward(&kt, batch, false)
		}
		mm, ta, tb = append(mm, kt.matmul), append(ta, kt.transA), append(tb, kt.transB)
		i2c, c2i = append(i2c, kt.im2col), append(c2i, kt.col2im)
		macs = kt.macs
	}
	o.metrics["tensor.matmul_s"] = median(mm)
	o.metrics["tensor.im2col_s"] = median(i2c)
	o.metrics["tensor.matmul_ns_per_mac"] = 1e9 * median(mm) / macs
	if train {
		o.metrics["tensor.matmul_transa_s"] = median(ta)
		o.metrics["tensor.matmul_transb_s"] = median(tb)
		o.metrics["tensor.col2im_s"] = median(c2i)
	}
}

// replayWire times the update wire at a parameter count: the versioned
// envelope encode and decode of a delta, and the gob encode of the
// UpdateRequest carrying the global vector.
func replayWire(o *outcome, params int, budget time.Duration) {
	rng := rand.New(rand.NewSource(9))
	v := make([]float64, params)
	for i := range v {
		v[i] = rng.NormFloat64() * 1e-3
	}
	var buf []byte
	var enc, dec, req []float64
	end := time.Now().Add(budget)
	for it := 0; it < minReplays || time.Now().Before(end); it++ {
		enc = append(enc, timeIt(func() { buf = transport.AppendVersionedUpdate(buf[:0], v) }))
		var err error
		dec = append(dec, timeIt(func() { _, err = transport.DecodeVersionedUpdate(buf) }))
		if err != nil {
			panic(fmt.Sprintf("perfbench: versioned update does not round-trip: %v", err))
		}
		var body bytes.Buffer
		req = append(req, timeIt(func() {
			err = gob.NewEncoder(&body).Encode(transport.UpdateRequest{Global: v, Round: it})
		}))
		if err != nil {
			panic(fmt.Sprintf("perfbench: gob encode: %v", err))
		}
	}
	o.metrics["wire.update_encode_s"] = median(enc)
	o.metrics["wire.update_decode_s"] = median(dec)
	o.metrics["wire.gob_request_encode_s"] = median(req)
}
