package core

import (
	"fmt"
	"testing"

	"safexplain/internal/data"
	"safexplain/internal/fdir"
	"safexplain/internal/nn"
	"safexplain/internal/safety"
	"safexplain/internal/supervisor"
	"safexplain/internal/tensor"
	"safexplain/internal/trace"
)

// passCounter tells forward passes of one network apart by their output
// tensor: every pass allocates a fresh final Dense output, and a memo hit
// returns the cached one. The seams below report after each call that
// forwards the network; frame() returns how many distinct passes the
// frame's seams saw, and the class the frame delivered.
type passCounter struct {
	net    *nn.Network
	passes map[*tensor.Tensor]bool
	class  int
}

func (c *passCounter) saw() {
	c.passes[c.net.Activation(len(c.net.Layers)-1)] = true
}

func (c *passCounter) frame() (passes, class int) {
	passes, class = len(c.passes), c.class
	c.passes, c.class = map[*tensor.Tensor]bool{}, -2
	return passes, class
}

type countProbe struct {
	inner fdir.Probe
	c     *passCounter
}

func (p countProbe) Logits(x *tensor.Tensor) []float32 {
	l := p.inner.Logits(x)
	p.c.saw()
	return l
}

type countChannel struct {
	inner    safety.Channel
	c        *passCounter
	forwards bool // the channel runs the network
}

func (ch countChannel) Name() string { return ch.inner.Name() }

func (ch countChannel) Classify(x *tensor.Tensor) int {
	k := ch.inner.Classify(x)
	if ch.forwards {
		ch.c.saw()
	} else {
		ch.c.class = k
	}
	return k
}

type countPattern struct {
	safety.Pattern
	c *passCounter
}

func (p countPattern) Decide(x *tensor.Tensor) safety.Decision {
	d := p.Pattern.Decide(x)
	p.c.class = d.Class
	if d.Fallback {
		p.c.class = d.FallbackClass
	}
	return d
}

type countSup struct {
	supervisor.Supervisor
	c *passCounter
}

func (s countSup) Score(net *nn.Network, x *tensor.Tensor) float64 {
	v := s.Supervisor.Score(net, x)
	s.c.saw()
	return v
}

// countSeams decorates every seam of a Simplex system that forwards the
// deployed network, and the two that deliver a class. Obs is detached so
// that the evidence log holds only what FDIR and the frame loop append.
func countSeams(t *testing.T, s *System) *passCounter {
	t.Helper()
	sx, ok := s.FDIR.Pattern.(safety.Simplex)
	if !ok {
		t.Fatalf("FDIR pattern is %T, want safety.Simplex", s.FDIR.Pattern)
	}
	c := &passCounter{net: s.Net}
	c.frame()
	sx.Primary = countChannel{inner: sx.Primary, c: c, forwards: true}
	s.FDIR.Pattern = countPattern{Pattern: sx, c: c}
	s.FDIR.Probe = countProbe{inner: s.FDIR.Probe, c: c}
	s.FDIR.Fallback = countChannel{inner: s.FDIR.Fallback, c: c}
	s.Monitor.Sup = countSup{Supervisor: s.Monitor.Sup, c: c}
	s.Obs, s.FDIR.Obs = nil, nil
	return c
}

// oneFrame is a one-frame stream: the shape of a deployed sensor loop
// that calls Operate per frame.
type oneFrame struct{ x *tensor.Tensor }

func (f oneFrame) Len() int                         { return 1 }
func (f oneFrame) Sample(int) (*tensor.Tensor, int) { return f.x, 0 }

// TestOperateOneForwardPerFrame drives a faulted stream (a sensor-fault
// burst and a weight upset between frames) through per-frame Operate
// calls. Every in-service frame must run exactly one forward pass, and
// the delivered classes and evidence seal must equal those of an
// identically built System stepped frame by frame through FDIR.Step
// with no frame scope open.
func TestOperateOneForwardPerFrame(t *testing.T) {
	const (
		frames    = 160
		seuFrame  = 20
		faultFrom = 90
		faultTo   = 115
	)
	build := func() *System {
		s, err := Build(Config{
			CaseStudy: data.CaseStudy{Name: "railway", Generate: data.Railway},
			Pattern:   PatternSimplex,
			Seed:      5300,
			Epochs:    4,
			// Low thresholds: this test is about the frame loop.
			MinAccuracy: 0.3, MinAUROC: 0.3, MinStability: 0.1, MinAgreement: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	stream := func(s *System) []*tensor.Tensor {
		fault := safety.SensorFault(1, 200, 5301)
		xs := make([]*tensor.Tensor, frames)
		for i := range xs {
			xs[i], _ = s.TestSet().Sample(i % s.TestSet().Len())
			if i >= faultFrom && i < faultTo {
				xs[i] = fault(xs[i])
			}
		}
		return xs
	}
	drift := func(s *System) *supervisor.DriftDetector {
		d, err := s.NewDriftDetector(0.5, 5)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	sys, ref := build(), build()
	sysX, refX := stream(sys), stream(ref)
	sysD, refD := drift(sys), drift(ref)
	sysC, refC := countSeams(t, sys), countSeams(t, ref)

	var sysClasses, refClasses []int
	quarantines, restores, inService := 0, 0, 0
	for i := 0; i < frames; i++ {
		if i == seuFrame {
			for _, s := range []*System{sys, ref} {
				if err := fdir.InjectSEU(s.Net, 40, 5302); err != nil {
					t.Fatal(err)
				}
			}
		}

		r := sys.Operate(oneFrame{sysX[i]}, sysD)
		quarantines += r.Quarantines
		restores += r.Restores
		passes, class := sysC.frame()
		sysClasses = append(sysClasses, class)
		if sys.FDIR.InService() {
			inService++
			if passes != 1 {
				t.Fatalf("frame %d: in-service Operate ran %d forward passes, want 1", i, passes)
			}
		}

		// The reference: Operate's frame loop with no scope open.
		st := ref.FDIR.Step(0, refX[i], fdir.Signals{})
		if st.Decision.Fallback {
			ref.Log.Append(trace.KindIncident, "incident:fallback", st.Decision.Reason)
		}
		if refD.Observe(ref.Monitor.Sup.Score(ref.Net, refX[i])) {
			ref.Log.Append(trace.KindIncident, "incident:drift",
				fmt.Sprintf("CUSUM drift alarm at frame %d (statistic %.1f sigma)", 0, refD.Statistic()))
		}
		refPasses, class := refC.frame()
		if class != st.Class {
			t.Fatalf("frame %d: reference tap saw class %d, Step delivered %d", i, class, st.Class)
		}
		refClasses = append(refClasses, class)
		if st.InService && !st.Decision.Fallback && refPasses != 4 {
			t.Fatalf("frame %d: unscoped trusted frame ran %d passes, want 4 (probe, trust, primary, drift)", i, refPasses)
		}
	}

	if quarantines == 0 || restores == 0 {
		t.Fatalf("faulted stream quarantined %d times and restored %d times, want both > 0", quarantines, restores)
	}
	if inService < frames/2 {
		t.Fatalf("only %d of %d frames in service", inService, frames)
	}
	for i := range sysClasses {
		if sysClasses[i] != refClasses[i] {
			t.Fatalf("frame %d: Operate delivered %d, reference %d", i, sysClasses[i], refClasses[i])
		}
	}
	key := []byte("one-forward-per-frame")
	if a, b := sys.Log.Seal(key), ref.Log.Seal(key); a != b {
		t.Fatalf("evidence seal %s differs from the reference's %s", a, b)
	}
	if !sys.FDIR.Golden.Verify(sys.Net) {
		t.Fatal("deployed model does not match its golden image at the end of the run")
	}
}
