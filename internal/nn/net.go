package nn

import (
	"fmt"
	"strings"

	"safexplain/internal/tensor"
)

// Network is an ordered stack of layers. It caches per-layer activations
// during Forward so Backward, the explainers, and the feature-based
// supervisors can consume them. Not safe for concurrent use.
//
// Frame scope. Between BeginFrame and EndFrame, Forward memoizes: a call
// returns the activations of the previous pass, without running any
// layer, when all of these hold:
//
//   - x is the same *tensor.Tensor as the previous pass's input;
//   - Layers has the same length and backing array as it had then
//     (fdir.Golden.Restore replaces it);
//   - Params and SetTraining have not been called since.
//
// Anything else recomputes, and BeginFrame and EndFrame both drop the
// memo. Outside a scope Forward always recomputes, so a caller that
// mutates its input in place and re-forwards the same pointer (XAI
// occlusion) sees the new result. Inside a scope the input must not be
// mutated between passes, and weights written mid-frame must be reached
// through Params (as fdir.InjectSEU, safety.CorruptWeights and the
// trainer do) or swapped in as a new Layers slice; a write through a
// layer's fields alone is not seen until the scope ends.
type Network struct {
	// ID names the model in traceability records.
	ID     string
	Layers []Layer

	// activations[0] is the input; activations[i+1] is Layers[i]'s output.
	activations []*tensor.Tensor

	// scoped is set between BeginFrame and EndFrame. memo reports that
	// activations may be returned as-is while Layers is still memoLayers.
	scoped     bool
	memo       bool
	memoLayers []Layer
}

// NewNetwork constructs a network over the given layers.
func NewNetwork(id string, layers ...Layer) *Network {
	return &Network{ID: id, Layers: layers}
}

// Describe returns a one-line-per-layer architecture summary.
func (n *Network) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s:\n", n.ID)
	for i, l := range n.Layers {
		fmt.Fprintf(&b, "  [%d] %s\n", i, l.Name())
	}
	return b.String()
}

// BeginFrame opens a frame scope (see Network); the first Forward inside
// it computes, and repeats on the same input reuse that pass.
func (n *Network) BeginFrame() { n.scoped, n.memo = true, false }

// EndFrame closes the frame scope and drops the memo.
func (n *Network) EndFrame() { n.scoped, n.memo = false, false }

// dropMemo invalidates the frame memo. It writes only when a memo is
// held, so read-only callers of Params on a shared network stay
// race-free outside a scope.
func (n *Network) dropMemo() {
	if n.memo {
		n.memo = false
	}
}

// memoHit reports whether the previous pass can stand for Forward(x).
func (n *Network) memoHit(x *tensor.Tensor) bool {
	return n.memo && x == n.activations[0] &&
		len(n.Layers) == len(n.memoLayers) &&
		(len(n.Layers) == 0 || &n.Layers[0] == &n.memoLayers[0])
}

// Forward runs the network on one input and returns the final output
// (typically logits), caching every intermediate activation. Inside a
// frame scope a repeat on the same input returns the cached output.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	if n.memoHit(x) {
		return n.activations[len(n.activations)-1]
	}
	n.activations = n.activations[:0]
	n.activations = append(n.activations, x)
	for _, l := range n.Layers {
		x = l.Forward(x)
		n.activations = append(n.activations, x)
	}
	n.memo, n.memoLayers = n.scoped, n.Layers
	return x
}

// Backward propagates gradOut (gradient w.r.t. the final output of the
// most recent Forward) through the network, accumulating parameter
// gradients, and returns the gradient w.r.t. the network input — the
// quantity gradient-based explainers need.
func (n *Network) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(n.activations) == 0 {
		panic("nn: Backward before Forward")
	}
	g := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	return g
}

// Activation returns the cached output of layer i from the most recent
// Forward (i == -1 returns the input).
func (n *Network) Activation(i int) *tensor.Tensor {
	return n.activations[i+1]
}

// Params returns all trainable parameters in layer order. It drops the
// frame memo: the caller may write the weights.
func (n *Network) Params() []*Param {
	n.dropMemo()
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.Value.Len()
	}
	return c
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// Logits runs Forward and returns the raw output vector.
func (n *Network) Logits(x *tensor.Tensor) *tensor.Tensor { return n.Forward(x) }

// Predict runs Forward and returns the argmax class and its softmax
// probability vector.
func (n *Network) Predict(x *tensor.Tensor) (class int, probs *tensor.Tensor) {
	logits := n.Forward(x)
	probs = tensor.New(logits.Shape()...)
	tensor.Softmax(probs, logits)
	return probs.Argmax(), probs
}

// Features runs Forward and returns the cached activation of the
// penultimate parametric stage — the input to the final Dense layer —
// which is the embedding the Mahalanobis supervisor models. It falls back
// to the network input if no Dense layer exists.
func (n *Network) Features(x *tensor.Tensor) []float32 {
	n.Forward(x)
	lastDense := -1
	for i, l := range n.Layers {
		if _, ok := l.(*Dense); ok {
			lastDense = i
		}
	}
	var act *tensor.Tensor
	if lastDense >= 0 {
		act = n.Activation(lastDense - 1)
	} else {
		act = n.Activation(-1)
	}
	out := make([]float32, act.Len())
	copy(out, act.Data())
	return out
}

// Clone returns a deep copy of the network: same architecture, copied
// parameter values, fresh gradient buffers and caches. Layer construction
// uses a nil PRNG because values are overwritten immediately.
func (n *Network) Clone(id string) (*Network, error) {
	spec, err := Marshal(n)
	if err != nil {
		return nil, err
	}
	c, err := Unmarshal(spec)
	if err != nil {
		return nil, err
	}
	c.ID = id
	return c, nil
}
