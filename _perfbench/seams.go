package main

import (
	"fmt"
	"time"

	"safexplain/internal/core"
	"safexplain/internal/fdir"
	"safexplain/internal/nn"
	"safexplain/internal/safety"
	"safexplain/internal/supervisor"
	"safexplain/internal/tensor"
)

// layer names one timed seam. Roots are the calls the benchmark makes
// itself; every other layer is a decorator on an exported interface
// field of the System or a direct call into a fleet package.
type layer uint8

const (
	layOperate     layer = iota // core.System.Operate, one call per frame (root)
	layProbe                    // fdir.Runtime.Probe.Logits
	layDecide                   // fdir.Runtime.Pattern.Decide, a safety.Simplex
	layPrimary                  // safety.Simplex.Primary.Classify
	layScore                    // supervisor.Monitor.Sup.Score: trust check and drift
	layFallback                 // fdir.Runtime.Fallback.Classify
	layInfer                    // qnn.Engine.Infer on the frame's input, beside the frame (root)
	layRound                    // one fleet round, first Submit to region drain (root)
	laySubmit                   // fleetnet.Node.Submit, one span per round
	layUnitDrain                // fleetnet.Node.Drain on the unit node
	layRegionDrain              // fleetnet.Node.Drain on the region node
	layIngest                   // fleet.Aggregator.Ingest of one unit's stream, flat reference (root)
	numLayers
)

var layerNames = [numLayers]string{
	"core.operate", "fdir.probe", "safety.decide", "nn.primary", "supervisor.score",
	"fdir.fallback", "qnn.infer", "fleetnet.round", "fleetnet.submit",
	"fleetnet.unit_drain", "fleetnet.region_drain", "fleet.ingest",
}

// span is one timed call at a seam.
type span struct {
	layer      layer
	parent     int32 // index of the enclosing span; -1 for a root
	id         int64 // frame or round number the span belongs to
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans in memory. A nil tracer records nothing, so the
// decorators cost one comparison when tracing is off. Spans nest by
// call order: the benchmark drives the System from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	id    int64 // id stamped on the spans begun next
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, parent: parent, id: t.id, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the durations of its
// direct children. Children never overlap (one goroutine), so this is the
// part of the span's interval that no child covers.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// checkSelfTimes checks the spans against the self times selfTimes gave
// them, by an independent computation: every child lies inside its
// parent, no two children of a span overlap, and each span's interval
// less the union of its children's intervals is its self time. Spans are
// kept in the order they began, so a span's children come in start
// order. Every traced run calls it.
func checkSelfTimes(spans []span, self []int64) error {
	covered := make([]int64, len(spans)) // length of the union of each span's children
	reach := make([]int64, len(spans))   // end of that union so far
	for i, s := range spans {
		reach[i] = s.start
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, layerNames[s.layer])
		}
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside its parent %d (%s) [%d,%d]",
				i, layerNames[s.layer], s.start, s.end, s.parent, layerNames[p.layer], p.start, p.end)
		}
		if s.start < reach[s.parent] {
			return fmt.Errorf("span %d (%s) overlaps an earlier child of span %d", i, layerNames[s.layer], s.parent)
		}
		covered[s.parent] += s.end - s.start
		reach[s.parent] = s.end
	}
	for i, s := range spans {
		if got := s.end - s.start - covered[i]; got != self[i] {
			return fmt.Errorf("span %d (%s): interval less children %d ns, self time %d ns",
				i, layerNames[s.layer], got, self[i])
		}
	}
	return nil
}

// layerTotals sums calls, time and self time per layer over the spans
// whose id lies in [lo, hi).
type layerTotals struct {
	calls     [numLayers]int64
	ns, selfN [numLayers]int64
}

func sumLayers(spans []span, self []int64, lo, hi int64) layerTotals {
	var lt layerTotals
	for i, s := range spans {
		if s.id < lo || s.id >= hi {
			continue
		}
		lt.calls[s.layer]++
		lt.ns[s.layer] += s.end - s.start
		lt.selfN[s.layer] += self[i]
	}
	return lt
}

// tap records the class the System delivered for the current frame, as
// seen at the FDIR pattern and fallback seams. Operate returns only
// counts, so this is how the benchmark checks each frame's output.
type tap struct {
	class    int  // delivered class; noClass until a seam delivers
	fallback bool // the delivered class is a fallback
}

const noClass = -2

// seams is one setting of the exported interface fields the benchmark
// decorates: the FDIR probe, pattern and fallback, and the monitor's
// supervisor (shared by the Simplex trust check and the drift score).
type seams struct {
	probe    fdir.Probe
	pattern  safety.Pattern
	fallback safety.Channel
	sup      supervisor.Supervisor
}

func currentSeams(sys *core.System) seams {
	return seams{probe: sys.FDIR.Probe, pattern: sys.FDIR.Pattern,
		fallback: sys.FDIR.Fallback, sup: sys.Monitor.Sup}
}

func (s seams) apply(sys *core.System) {
	sys.FDIR.Probe, sys.FDIR.Pattern = s.probe, s.pattern
	sys.FDIR.Fallback, sys.Monitor.Sup = s.fallback, s.sup
}

// decorate wraps the bare seams. With a nil tracer only the pattern and
// fallback taps are installed, which is what the untraced run uses; with
// a tracer every seam records spans, and the pattern is rebuilt as a
// safety.Simplex whose Primary is wrapped too.
func decorate(bare seams, t *tracer, tp *tap) (seams, error) {
	out := bare
	out.fallback = &fallbackSeam{inner: bare.fallback, t: t, tap: tp}
	if t == nil {
		out.pattern = &patternSeam{inner: bare.pattern, tap: tp}
		return out, nil
	}
	sx, ok := bare.pattern.(safety.Simplex)
	if !ok {
		return seams{}, fmt.Errorf("FDIR pattern is %T, want safety.Simplex", bare.pattern)
	}
	sx.Primary = &primarySeam{inner: sx.Primary, t: t}
	out.pattern = &patternSeam{inner: sx, t: t, tap: tp}
	out.probe = &probeSeam{inner: bare.probe, t: t}
	out.sup = &supSeam{inner: bare.sup, t: t}
	return out, nil
}

type probeSeam struct {
	inner fdir.Probe
	t     *tracer
}

func (p *probeSeam) Logits(x *tensor.Tensor) []float32 {
	i := p.t.begin(layProbe)
	l := p.inner.Logits(x)
	p.t.end(i)
	return l
}

type patternSeam struct {
	inner safety.Pattern
	t     *tracer
	tap   *tap
}

func (p *patternSeam) Name() string                 { return p.inner.Name() }
func (p *patternSeam) Level() safety.IntegrityLevel { return p.inner.Level() }

func (p *patternSeam) Decide(x *tensor.Tensor) safety.Decision {
	i := p.t.begin(layDecide)
	d := p.inner.Decide(x)
	p.t.end(i)
	p.tap.class, p.tap.fallback = d.Class, d.Fallback
	if d.Fallback {
		p.tap.class = d.FallbackClass
	}
	return d
}

type primarySeam struct {
	inner safety.Channel
	t     *tracer
}

func (c *primarySeam) Name() string { return c.inner.Name() }

func (c *primarySeam) Classify(x *tensor.Tensor) int {
	i := c.t.begin(layPrimary)
	k := c.inner.Classify(x)
	c.t.end(i)
	return k
}

type fallbackSeam struct {
	inner safety.Channel
	t     *tracer
	tap   *tap
}

func (c *fallbackSeam) Name() string { return c.inner.Name() }

func (c *fallbackSeam) Classify(x *tensor.Tensor) int {
	i := c.t.begin(layFallback)
	k := c.inner.Classify(x)
	c.t.end(i)
	c.tap.class, c.tap.fallback = k, true
	return k
}

type supSeam struct {
	inner supervisor.Supervisor
	t     *tracer
}

func (s *supSeam) Name() string { return s.inner.Name() }

func (s *supSeam) Fit(net *nn.Network, calib supervisor.Dataset) error {
	return s.inner.Fit(net, calib)
}

func (s *supSeam) Score(net *nn.Network, x *tensor.Tensor) float64 {
	i := s.t.begin(layScore)
	v := s.inner.Score(net, x)
	s.t.end(i)
	return v
}
