package nn

import (
	"errors"
	"fmt"
	"math"

	"safexplain/internal/prng"
	"safexplain/internal/tensor"
)

// BatchNorm2D is per-channel normalization with *frozen* statistics:
// y = gamma · (x − mu)/sqrt(var + eps) + beta, where mu/var are buffers
// set by calibration (CalibrateBatchNorms) and gamma/beta are trained.
//
// The frozen-statistics form is the FUSA-appropriate variant: batch
// statistics computed at run time are input-dependent control flow, which
// certification dislikes, and this library trains sample-at-a-time where
// batch statistics are degenerate anyway. Frozen BN is also exactly the
// form that folds into an adjacent convolution at deployment (FoldBatchNorm),
// so the shipped binary contains no normalization construct at all.
type BatchNorm2D struct {
	C           int
	Eps         float32
	Gamma, Beta *Param
	Mu, Var     []float32 // frozen statistics (buffers, not trained)

	x *tensor.Tensor
}

// NewBatchNorm2D constructs a BatchNorm2D over c channels with identity
// statistics (mu 0, var 1) and identity affine (gamma 1, beta 0).
func NewBatchNorm2D(c int) *BatchNorm2D {
	b := &BatchNorm2D{
		C:   c,
		Eps: 1e-5,
		Gamma: &Param{Name: fmt.Sprintf("bn_%d.gamma", c),
			Value: tensor.New(c), Grad: tensor.New(c)},
		Beta: &Param{Name: fmt.Sprintf("bn_%d.beta", c),
			Value: tensor.New(c), Grad: tensor.New(c)},
		Mu:  make([]float32, c),
		Var: make([]float32, c),
	}
	for i := 0; i < c; i++ {
		b.Gamma.Value.Data()[i] = 1
		b.Var[i] = 1
	}
	return b
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return fmt.Sprintf("BatchNorm2D(%d)", b.C) }

// OutShape implements Layer.
func (b *BatchNorm2D) OutShape(in []int) []int { return in }

// scale returns gamma/sqrt(var+eps) for channel c.
func (b *BatchNorm2D) scale(c int) float32 {
	return b.Gamma.Value.Data()[c] / float32(math.Sqrt(float64(b.Var[c]+b.Eps)))
}

// Forward implements Layer.
func (b *BatchNorm2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 3 || in.Dim(0) != b.C {
		panic(fmt.Sprintf("nn: %s got input shape %v", b.Name(), in.Shape()))
	}
	b.x = in
	out := tensor.New(in.Shape()...)
	h, w := in.Dim(1), in.Dim(2)
	for c := 0; c < b.C; c++ {
		s := b.scale(c)
		shift := b.Beta.Value.Data()[c] - s*b.Mu[c]
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out.Set3(c, y, x, s*in.At3(c, y, x)+shift)
			}
		}
	}
	return out
}

// Backward implements Layer. With frozen statistics the op is affine per
// channel, so gradients are simple:
//
//	dx    = dy · gamma/sqrt(var+eps)
//	dgamma = Σ dy · (x−mu)/sqrt(var+eps)
//	dbeta  = Σ dy
func (b *BatchNorm2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape()...)
	h, w := gradOut.Dim(1), gradOut.Dim(2)
	for c := 0; c < b.C; c++ {
		inv := 1 / float32(math.Sqrt(float64(b.Var[c]+b.Eps)))
		g := b.Gamma.Value.Data()[c]
		var dg, db float32
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dy := gradOut.At3(c, y, x)
				dg += dy * (b.x.At3(c, y, x) - b.Mu[c]) * inv
				db += dy
				gradIn.Set3(c, y, x, dy*g*inv)
			}
		}
		b.Gamma.Grad.Data()[c] += dg
		b.Beta.Grad.Data()[c] += db
	}
	return gradIn
}

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// CalibrateBatchNorms runs the dataset through net and freezes every
// BatchNorm2D's mu/var to its observed per-channel input statistics.
// Call after construction (or re-call after training to re-center).
func CalibrateBatchNorms(net *Network, ds Dataset) error {
	if ds.Len() == 0 {
		return errors.New("nn: empty calibration set")
	}
	// Locate BN layers and their input activation index.
	type bnAt struct {
		bn  *BatchNorm2D
		idx int // activation index of the BN input
	}
	var bns []bnAt
	for i, l := range net.Layers {
		if bn, ok := l.(*BatchNorm2D); ok {
			bns = append(bns, bnAt{bn, i - 1})
		}
	}
	if len(bns) == 0 {
		return nil
	}
	sums := make([][]float64, len(bns))
	sqs := make([][]float64, len(bns))
	counts := make([]float64, len(bns))
	for k, b := range bns {
		sums[k] = make([]float64, b.bn.C)
		sqs[k] = make([]float64, b.bn.C)
	}
	for i := 0; i < ds.Len(); i++ {
		x, _ := ds.Sample(i)
		net.Forward(x)
		for k, b := range bns {
			act := net.Activation(b.idx)
			h, w := act.Dim(1), act.Dim(2)
			for c := 0; c < b.bn.C; c++ {
				for y := 0; y < h; y++ {
					for xx := 0; xx < w; xx++ {
						v := float64(act.At3(c, y, xx))
						sums[k][c] += v
						sqs[k][c] += v * v
					}
				}
			}
			counts[k] += float64(h * w)
		}
	}
	for k, b := range bns {
		for c := 0; c < b.bn.C; c++ {
			mean := sums[k][c] / counts[k]
			variance := sqs[k][c]/counts[k] - mean*mean
			if variance < 1e-8 {
				variance = 1e-8
			}
			b.bn.Mu[c] = float32(mean)
			b.bn.Var[c] = float32(variance)
		}
	}
	return nil
}

// FoldBatchNorm returns the deployment form of the network: every
// Conv2D+BatchNorm2D pair is fused into a single convolution —
//
//	w' = w · s,  b' = (b − mu)·s + beta,  s = gamma/sqrt(var+eps)
//
// — and Dropout layers (identity at inference) are removed. The result
// contains only the construct set the quantized engine certifies. A
// BatchNorm2D not directly preceded by a Conv2D cannot be folded and is an
// error. The input network is never modified.
func FoldBatchNorm(net *Network) (*Network, error) {
	out := &Network{ID: net.ID + "/folded"}
	for i := 0; i < len(net.Layers); i++ {
		if _, isDrop := net.Layers[i].(*Dropout); isDrop {
			continue // identity at inference
		}
		bn, isBN := net.Layers[i].(*BatchNorm2D)
		if !isBN {
			// Copy the layer via serialization of a single-layer net to
			// keep parameters independent of the original.
			copied, err := copyLayer(net.Layers[i])
			if err != nil {
				return nil, err
			}
			out.Layers = append(out.Layers, copied)
			continue
		}
		if len(out.Layers) == 0 {
			return nil, errors.New("nn: BatchNorm2D with no preceding layer cannot be folded")
		}
		conv, isConv := out.Layers[len(out.Layers)-1].(*Conv2D)
		if !isConv {
			return nil, fmt.Errorf("nn: BatchNorm2D after %s cannot be folded (need Conv2D)",
				out.Layers[len(out.Layers)-1].Name())
		}
		if conv.OutC != bn.C {
			return nil, fmt.Errorf("nn: fold channel mismatch conv %d vs bn %d", conv.OutC, bn.C)
		}
		for o := 0; o < conv.OutC; o++ {
			s := bn.scale(o)
			row := conv.W.Value.Data()[o*conv.InC*conv.KH*conv.KW : (o+1)*conv.InC*conv.KH*conv.KW]
			for j := range row {
				row[j] *= s
			}
			bv := conv.B.Value.Data()[o]
			conv.B.Value.Data()[o] = (bv-bn.Mu[o])*s + bn.Beta.Value.Data()[o]
		}
	}
	return out, nil
}

// copyLayer deep-copies a single layer through the canonical serialization.
func copyLayer(l Layer) (Layer, error) {
	tmp := &Network{ID: "tmp", Layers: []Layer{l}}
	blob, err := Marshal(tmp)
	if err != nil {
		return nil, err
	}
	back, err := Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	return back.Layers[0], nil
}

// Dropout zeroes a fraction of activations during training (scaling the
// survivors by 1/(1−rate)) and is the identity in evaluation mode. The
// mask stream is seeded, so a training run remains bit-reproducible.
type Dropout struct {
	Rate float32

	training bool
	src      *prng.Source
	mask     []bool
}

// NewDropout constructs a Dropout layer with the given rate in [0, 1) and
// mask seed.
func NewDropout(rate float32, seed uint64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v outside [0,1)", rate))
	}
	return &Dropout{Rate: rate, src: prng.New(seed)}
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("Dropout(%.2f)", d.Rate) }

// OutShape implements Layer.
func (d *Dropout) OutShape(in []int) []int { return in }

// SetTraining switches between the stochastic (training) and identity
// (evaluation) behaviour; Network.SetTraining fans this out.
func (d *Dropout) SetTraining(on bool) { d.training = on }

// Forward implements Layer.
func (d *Dropout) Forward(in *tensor.Tensor) *tensor.Tensor {
	if !d.training || d.Rate == 0 {
		d.mask = nil
		return in
	}
	out := tensor.New(in.Shape()...)
	if cap(d.mask) < in.Len() {
		d.mask = make([]bool, in.Len())
	}
	d.mask = d.mask[:in.Len()]
	scale := 1 / (1 - d.Rate)
	for i, v := range in.Data() {
		keep := d.src.Float32() >= d.Rate
		d.mask[i] = keep
		if keep {
			out.Data()[i] = v * scale
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return gradOut
	}
	gradIn := tensor.New(gradOut.Shape()...)
	scale := 1 / (1 - d.Rate)
	for i, keep := range d.mask {
		if keep {
			gradIn.Data()[i] = gradOut.Data()[i] * scale
		}
	}
	return gradIn
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// trainable is implemented by layers with distinct training behaviour.
type trainable interface {
	SetTraining(on bool)
}

// SetTraining toggles training mode on every mode-aware layer (Dropout).
// It drops the frame memo, since the mode changes what Forward computes.
func (n *Network) SetTraining(on bool) {
	n.dropMemo()
	for _, l := range n.Layers {
		if t, ok := l.(trainable); ok {
			t.SetTraining(on)
		}
	}
}
