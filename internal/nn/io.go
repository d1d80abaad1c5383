package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"

	"safexplain/internal/tensor"
)

// Binary model format. Certification workflows need two properties the
// mainstream formats don't guarantee: the encoding is canonical (the same
// model always serializes to the same bytes, so SHA-256 of the blob is a
// stable model identity for the traceability log), and the decoder is small
// enough to review. Layout, little-endian throughout:
//
//	magic "SFXM" | u32 version | u32 len(ID) | ID bytes |
//	u32 nLayers | per layer: u8 kind | kind-specific header | weights
const (
	modelMagic   = "SFXM"
	modelVersion = 1
)

// Layer kind tags in the serialized form.
const (
	kindDense byte = iota + 1
	kindReLU
	kindSigmoid
	kindTanh
	kindFlatten
	kindConv2D
	kindMaxPool2D
	kindAvgPool2D
	kindBatchNorm2D
	kindDropout
)

// ErrBadModel is returned when a model blob fails structural validation.
var ErrBadModel = errors.New("nn: malformed model data")

// Marshal serializes the network architecture and weights canonically.
func Marshal(n *Network) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(modelMagic)
	writeU32(&buf, modelVersion)
	writeU32(&buf, uint32(len(n.ID)))
	buf.WriteString(n.ID)
	writeU32(&buf, uint32(len(n.Layers)))
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			buf.WriteByte(kindDense)
			writeU32(&buf, uint32(v.In))
			writeU32(&buf, uint32(v.Out))
			writeTensor(&buf, v.W.Value)
			writeTensor(&buf, v.B.Value)
		case *ReLU:
			buf.WriteByte(kindReLU)
		case *Sigmoid:
			buf.WriteByte(kindSigmoid)
		case *Tanh:
			buf.WriteByte(kindTanh)
		case *Flatten:
			buf.WriteByte(kindFlatten)
		case *Conv2D:
			buf.WriteByte(kindConv2D)
			writeU32(&buf, uint32(v.InC))
			writeU32(&buf, uint32(v.OutC))
			writeU32(&buf, uint32(v.KH))
			writeU32(&buf, uint32(v.Stride))
			writeU32(&buf, uint32(v.Pad))
			writeTensor(&buf, v.W.Value)
			writeTensor(&buf, v.B.Value)
		case *MaxPool2D:
			buf.WriteByte(kindMaxPool2D)
			writeU32(&buf, uint32(v.Window))
			writeU32(&buf, uint32(v.Stride))
		case *AvgPool2D:
			buf.WriteByte(kindAvgPool2D)
			writeU32(&buf, uint32(v.Window))
			writeU32(&buf, uint32(v.Stride))
		case *BatchNorm2D:
			buf.WriteByte(kindBatchNorm2D)
			writeU32(&buf, uint32(v.C))
			writeU32(&buf, math.Float32bits(v.Eps))
			writeTensor(&buf, v.Gamma.Value)
			writeTensor(&buf, v.Beta.Value)
			writeF32Slice(&buf, v.Mu)
			writeF32Slice(&buf, v.Var)
		case *Dropout:
			buf.WriteByte(kindDropout)
			writeU32(&buf, math.Float32bits(v.Rate))
		default:
			return nil, fmt.Errorf("nn: cannot serialize layer %T", l)
		}
	}
	return buf.Bytes(), nil
}

// Unmarshal reconstructs a network from its canonical serialized form.
func Unmarshal(data []byte) (*Network, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != modelMagic {
		return nil, ErrBadModel
	}
	ver, err := readU32(r)
	if err != nil || ver != modelVersion {
		return nil, ErrBadModel
	}
	idLen, err := readU32(r)
	if err != nil || idLen > 1<<16 {
		return nil, ErrBadModel
	}
	idBytes := make([]byte, idLen)
	if _, err := io.ReadFull(r, idBytes); err != nil {
		return nil, ErrBadModel
	}
	nLayers, err := readU32(r)
	if err != nil || nLayers > 1<<12 {
		return nil, ErrBadModel
	}
	net := &Network{ID: string(idBytes)}
	for i := uint32(0); i < nLayers; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return nil, ErrBadModel
		}
		switch kind {
		case kindDense:
			in, err1 := readU32(r)
			out, err2 := readU32(r)
			if err1 != nil || err2 != nil || in == 0 || out == 0 || in > 1<<20 || out > 1<<20 || !floatsFit(r, in, out) {
				return nil, ErrBadModel
			}
			d := NewDense(int(in), int(out), nil)
			if err := readTensorInto(r, d.W.Value); err != nil {
				return nil, err
			}
			if err := readTensorInto(r, d.B.Value); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, d)
		case kindReLU:
			net.Layers = append(net.Layers, NewReLU())
		case kindSigmoid:
			net.Layers = append(net.Layers, NewSigmoid())
		case kindTanh:
			net.Layers = append(net.Layers, NewTanh())
		case kindFlatten:
			net.Layers = append(net.Layers, NewFlatten())
		case kindConv2D:
			var vals [5]uint32
			for j := range vals {
				v, err := readU32(r)
				if err != nil || v > 1<<16 {
					return nil, ErrBadModel
				}
				vals[j] = v
			}
			if vals[0] == 0 || vals[1] == 0 || vals[2] == 0 || vals[3] == 0 || !floatsFit(r, vals[0], vals[1], vals[2], vals[2]) {
				return nil, ErrBadModel
			}
			c := NewConv2D(int(vals[0]), int(vals[1]), int(vals[2]), int(vals[3]), int(vals[4]), nil)
			if err := readTensorInto(r, c.W.Value); err != nil {
				return nil, err
			}
			if err := readTensorInto(r, c.B.Value); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, c)
		case kindMaxPool2D, kindAvgPool2D:
			w, err1 := readU32(r)
			s, err2 := readU32(r)
			if err1 != nil || err2 != nil || w == 0 || s == 0 || w > 1<<10 || s > 1<<10 {
				return nil, ErrBadModel
			}
			if kind == kindMaxPool2D {
				net.Layers = append(net.Layers, NewMaxPool2D(int(w), int(s)))
			} else {
				net.Layers = append(net.Layers, NewAvgPool2D(int(w), int(s)))
			}
		case kindBatchNorm2D:
			c, err1 := readU32(r)
			epsBits, err2 := readU32(r)
			if err1 != nil || err2 != nil || c == 0 || c > 1<<16 {
				return nil, ErrBadModel
			}
			bn := NewBatchNorm2D(int(c))
			bn.Eps = math.Float32frombits(epsBits)
			if err := readTensorInto(r, bn.Gamma.Value); err != nil {
				return nil, err
			}
			if err := readTensorInto(r, bn.Beta.Value); err != nil {
				return nil, err
			}
			if err := readF32Slice(r, bn.Mu); err != nil {
				return nil, err
			}
			if err := readF32Slice(r, bn.Var); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, bn)
		case kindDropout:
			rateBits, err := readU32(r)
			if err != nil {
				return nil, ErrBadModel
			}
			rate := math.Float32frombits(rateBits)
			if rate < 0 || rate >= 1 || math.IsNaN(float64(rate)) {
				return nil, ErrBadModel
			}
			// The mask seed is training-only state and intentionally not
			// part of the canonical form; deserialized models are for
			// inference, where Dropout is the identity.
			net.Layers = append(net.Layers, NewDropout(rate, 0))
		default:
			return nil, ErrBadModel
		}
	}
	if r.Len() != 0 {
		return nil, ErrBadModel
	}
	return net, nil
}

// Hash returns the hex SHA-256 of the canonical serialization — the model's
// identity in traceability records.
func Hash(n *Network) (string, error) {
	data, err := Marshal(n)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

// floatsFit reports whether r still holds a float32 for every element of
// a tensor with the given dims. Unmarshal checks it before allocating a
// layer, so a header declaring huge dims is rejected instead of
// allocating gigabytes for weights the input does not contain.
func floatsFit(r *bytes.Reader, dims ...uint32) bool {
	avail, need := uint64(r.Len())/4, uint64(1)
	for _, d := range dims {
		if need > avail/uint64(d) {
			return false
		}
		need *= uint64(d)
	}
	return true
}

func readU32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// writeTensor emits only the element data; shape is implied by the layer
// header, which keeps the format canonical.
func writeTensor(buf *bytes.Buffer, t *tensor.Tensor) {
	var b [4]byte
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		buf.Write(b[:])
	}
}

func writeF32Slice(buf *bytes.Buffer, xs []float32) {
	var b [4]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		buf.Write(b[:])
	}
}

func readF32Slice(r *bytes.Reader, xs []float32) error {
	var b [4]byte
	for i := range xs {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return ErrBadModel
		}
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return nil
}

func readTensorInto(r *bytes.Reader, t *tensor.Tensor) error {
	var b [4]byte
	for i := range t.Data() {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return ErrBadModel
		}
		t.Data()[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return nil
}
