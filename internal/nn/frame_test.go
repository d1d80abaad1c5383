package nn

import (
	"testing"

	"safexplain/internal/prng"
	"safexplain/internal/tensor"
)

// countingLayer wraps a layer and counts its Forward calls.
type countingLayer struct {
	Layer
	forwards *int
}

func (c countingLayer) Forward(in *tensor.Tensor) *tensor.Tensor {
	*c.forwards++
	return c.Layer.Forward(in)
}

// countedNet is a small Dense-ReLU-Dense network whose layers all count
// into one counter.
func countedNet(t *testing.T) (*Network, *int) {
	t.Helper()
	src := prng.New(3)
	n := new(int)
	net := NewNetwork("counted",
		countingLayer{NewDense(3, 4, src), n},
		countingLayer{NewReLU(), n},
		countingLayer{NewDense(4, 2, src), n})
	return net, n
}

func TestFrameMemoHitSkipsEveryLayer(t *testing.T) {
	net, n := countedNet(t)
	x := tensor.FromSlice([]float32{0.5, -1, 2}, 3)
	net.BeginFrame()
	first := net.Forward(x)
	if *n != 3 {
		t.Fatalf("first pass ran %d layer forwards, want 3", *n)
	}
	if got := net.Forward(x); got != first {
		t.Fatal("memo hit did not return the cached output")
	}
	net.Logits(x)
	net.Predict(x)
	net.Features(x)
	if *n != 3 {
		t.Fatalf("repeats inside the scope ran %d layer forwards, want 3 (all hits)", *n)
	}
	net.EndFrame()
}

func TestFrameMemoMisses(t *testing.T) {
	x := tensor.FromSlice([]float32{0.5, -1, 2}, 3)
	cases := []struct {
		name    string
		between func(net *Network)
	}{
		{"different input pointer", func(net *Network) { net.Forward(x.Clone()) }},
		{"Params", func(net *Network) { net.Params() }},
		{"SetTraining", func(net *Network) { net.SetTraining(false) }},
		{"Layers swap", func(net *Network) { net.Layers = append([]Layer(nil), net.Layers...) }},
		{"closed scope", func(net *Network) { net.EndFrame() }},
		{"reopened scope", func(net *Network) { net.EndFrame(); net.BeginFrame() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net, n := countedNet(t)
			net.BeginFrame()
			net.Forward(x)
			c.between(net)
			before := *n
			net.Forward(x)
			if *n-before != 3 {
				t.Fatalf("forward after %s ran %d layer forwards, want 3 (a recompute)", c.name, *n-before)
			}
			net.EndFrame()
		})
	}
}

// TestFrameMemoSeesParamsWrite: a weight written through Params inside
// an open scope is seen by the next forward.
func TestFrameMemoSeesParamsWrite(t *testing.T) {
	net, _ := countedNet(t)
	x := tensor.FromSlice([]float32{0.5, -1, 2}, 3)
	net.BeginFrame()
	defer net.EndFrame()
	before := net.Forward(x).Clone()
	ps := net.Params()
	b := ps[len(ps)-1].Value.Data()
	b[0] += 1
	if after := net.Forward(x); after.Data()[0] != before.Data()[0]+1 {
		t.Fatalf("bias write through Params not seen: %v then %v", before.Data(), after.Data())
	}
}

// TestForwardOutOfScopeSeesInPlaceMutation is the XAI occlusion case:
// outside a scope, re-forwarding the same pointer after mutating it in
// place gives the new result.
func TestForwardOutOfScopeSeesInPlaceMutation(t *testing.T) {
	net, n := countedNet(t)
	x := tensor.FromSlice([]float32{0.5, -1, 2}, 3)
	before := net.Forward(x).Clone()
	x.Data()[0] = 7
	after := net.Forward(x)
	if *n != 6 {
		t.Fatalf("two out-of-scope forwards ran %d layer forwards, want 6", *n)
	}
	fresh, _ := countedNet(t)
	if want := fresh.Forward(tensor.FromSlice([]float32{7, -1, 2}, 3)); !tensor.Equal(after, want) {
		t.Fatalf("re-forward of mutated input = %v, want %v", after.Data(), want.Data())
	}
	if tensor.Equal(after, before) {
		t.Fatal("re-forward of mutated input returned the old output")
	}
}
