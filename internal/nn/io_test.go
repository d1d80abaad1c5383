package nn

import (
	"testing"

	"safexplain/internal/prng"
	"safexplain/internal/tensor"
)

func sampleNet(seed uint64) *Network {
	src := prng.New(seed)
	return NewNetwork("sample",
		NewConv2D(1, 4, 3, 1, 1, src),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(4*4*4, 10, src),
		NewTanh(),
		NewDense(10, 3, src),
	)
}

func TestMarshalRoundTrip(t *testing.T) {
	net := sampleNet(1)
	data, err := Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != net.ID || len(back.Layers) != len(net.Layers) {
		t.Fatal("structure not preserved")
	}
	// Behavioural equivalence: identical outputs on random inputs.
	r := prng.New(2)
	for trial := 0; trial < 5; trial++ {
		x := tensor.New(1, 8, 8)
		for i := range x.Data() {
			x.Data()[i] = r.Float32()
		}
		if !tensor.Equal(net.Forward(x), back.Forward(x)) {
			t.Fatal("round-tripped network computes different outputs")
		}
	}
}

func TestMarshalCanonical(t *testing.T) {
	net := sampleNet(3)
	a, err := Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("serialization is not canonical")
	}
}

func TestHashIdentity(t *testing.T) {
	h1, err := Hash(sampleNet(4))
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := Hash(sampleNet(4))
	if h1 != h2 {
		t.Fatal("same seed must give same hash")
	}
	h3, _ := Hash(sampleNet(5))
	if h1 == h3 {
		t.Fatal("different weights must give different hash")
	}
	if len(h1) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h1))
	}
}

func TestHashSensitiveToSingleWeight(t *testing.T) {
	net := sampleNet(6)
	h1, _ := Hash(net)
	net.Params()[0].Value.Data()[0] += 1e-7
	h2, _ := Hash(net)
	if h1 == h2 {
		t.Fatal("hash must change when any weight changes")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE0000"),
		[]byte("SFXM"),                 // truncated after magic
		[]byte("SFXM\x02\x00\x00\x00"), // wrong version
		[]byte("SFXM\x01\x00\x00\x00\xff\xff\xff\xff"), // absurd ID length
		// A 2^20 x 2^20 dense layer and a conv with 2^16 channels and a
		// 2^16 kernel (2^64 weights), neither with weights behind it:
		// rejected before allocating.
		[]byte("SFXM\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x10\x00\x00\x00\x10\x00"),
		[]byte("SFXM\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x06\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00"),
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestUnmarshalRejectsTruncatedWeights(t *testing.T) {
	data, err := Marshal(sampleNet(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data[:len(data)-5]); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	data, err := Marshal(sampleNet(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(data, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	net := sampleNet(9)
	c, err := net.Clone("copy")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "copy" {
		t.Fatalf("clone ID = %q", c.ID)
	}
	// Mutating the clone must not touch the original.
	origHash, _ := Hash(net)
	c.Params()[0].Value.Data()[0] = 42
	afterHash, _ := Hash(net)
	if origHash != afterHash {
		t.Fatal("clone shares storage with original")
	}
}

func TestMarshalRoundTripAvgPool(t *testing.T) {
	src := prng.New(33)
	net := NewNetwork("avg",
		NewConv2D(1, 2, 3, 1, 1, src),
		NewAvgPool2D(2, 2),
		NewFlatten(),
		NewDense(2*4*4, 3, src),
	)
	dataBytes, err := Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(dataBytes)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(src.NormFloat64())
	}
	if !tensor.Equal(net.Forward(x), back.Forward(x)) {
		t.Fatal("avgpool round trip changed outputs")
	}
	if _, ok := back.Layers[1].(*AvgPool2D); !ok {
		t.Fatalf("layer 1 deserialized as %T", back.Layers[1])
	}
}
