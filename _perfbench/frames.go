package main

import (
	"fmt"
	"runtime"
	"time"

	"safexplain/internal/core"
	"safexplain/internal/data"
	"safexplain/internal/fdir"
	"safexplain/internal/prng"
	"safexplain/internal/safety"
	"safexplain/internal/supervisor"
	"safexplain/internal/tensor"
)

// Frame workloads drive core.System.Operate once per frame, as a sensor
// loop that needs each verdict before the next frame does. Frames come
// in missions; a mission is the frame workloads' round. The stream is
// shaped after the `safexplain fleet` command's defaults
// (cmd/safexplain/fleet.go): each mission is one unit's run of
// -frames 200, a plan holds -units 6 missions, and the first -faulty 3
// carry a sensor fault of -intensity 200 complemented pixels for
// -duration 25 frames from frame -inject 40, staggered by 3 frames per
// faulty mission.
const (
	missionFrames  = 200              // frames per mission (fleet -frames)
	planMissions   = 6                // missions in one generated stream, which the run cycles (fleet -units)
	faultyMissions = 3                // missions carrying the sensor fault (fleet -faulty)
	faultInject    = 40               // first faulted frame of the first faulty mission (fleet -inject)
	faultStagger   = 3                // later faulty missions start this many frames later
	faultFrames    = 25               // fault duration in frames (fleet -duration)
	faultPixels    = 200              // complemented pixel draws per faulted frame (fleet -intensity)
	seuFlips       = 40               // bit flips of the live-weight upset (campaign fault seu-40, experiment T12)
	warmMissions   = planMissions     // untimed missions before the window: one plan cycle
	windowMissions = 7 * planMissions // missions in the fixed window that counts allocations and heap
	blockMissions  = planMissions     // missions per statistics window and per block of tracing-overhead pairs
)

// systemSeed is the fixed Build seed: every workload runs the same
// deployed System and varies only the frames it feeds.
const systemSeed = 42

func buildSystem() (*core.System, error) {
	return core.Build(core.Config{
		CaseStudy: data.CaseStudy{Name: "railway", Generate: data.Railway},
		Pattern:   core.PatternSimplex,
		Seed:      systemSeed,
	})
}

// mission is one planned run of missionFrames frames.
type mission struct {
	frames  []*tensor.Tensor
	seu     int // frame index of the live-weight upset; -1 for none
	seuSeed uint64
}

// makePlan generates planMissions missions of railway frames from seed.
// With faults, the first faultyMissions missions carry the sensor fault,
// its pixels complemented as safety.SensorFault draws them, and the
// first of them also takes a live-weight upset on its first faulted
// frame: the weight fault the FDIR golden image exists for, at the
// injection frame as the campaign's seu faults place it. Every plan
// cycle therefore has the same fault load; the seed moves the frames and
// which pixels and bits the faults hit.
func makePlan(seed uint64, faulted bool) []mission {
	set := data.Railway(data.Config{N: planMissions * missionFrames, Seed: seed, Noise: 0.05})
	r := prng.New(seed ^ 0x9e3779b97f4a7c15)
	plan := make([]mission, planMissions)
	for m := range plan {
		ms := mission{frames: make([]*tensor.Tensor, missionFrames), seu: -1}
		for f := range ms.frames {
			ms.frames[f], _ = set.Sample(m*missionFrames + f)
		}
		if faulted && m < faultyMissions {
			b := faultInject + faultStagger*m
			corrupt := safety.SensorFault(1, faultPixels, r.Uint64())
			for f := b; f < b+faultFrames; f++ {
				ms.frames[f] = corrupt(ms.frames[f])
			}
			if m == 0 {
				ms.seu, ms.seuSeed = b, r.Uint64()
			}
		}
		plan[m] = ms
	}
	return plan
}

// frameState is what a frame workload's set-up hands to its run.
type frameState struct {
	sys     *core.System
	drift   *supervisor.DriftDetector
	plan    []mission
	faulted bool
	window  int   // missions in the fixed window
	held    int64 // live heap bytes the plan holds, which heap_mb leaves out
}

func setupFrames(seed uint64, faulted bool) (*frameState, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	sys, err := buildSystem()
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t0).Seconds()
	var plan []mission
	held := heldBytes(func() {
		t1 := time.Now()
		plan = makePlan(seed, faulted)
		st.generate = time.Since(t1).Seconds()
	})
	t2 := time.Now()
	drift, err := sys.NewDriftDetector(0, 0)
	if err != nil {
		return nil, st, err
	}
	st.total = st.build + st.generate + time.Since(t2).Seconds()
	return &frameState{sys: sys, drift: drift, plan: plan, faulted: faulted,
		window: windowMissions, held: held}, st, nil
}

// single is a one-frame stream: the per-frame call a sensor loop makes.
type single struct{ x *tensor.Tensor }

func (s single) Len() int                         { return 1 }
func (s single) Sample(int) (*tensor.Tensor, int) { return s.x, -1 }

// allocMeter sums heap allocation over the stretches it is started for.
type allocMeter struct {
	ms            runtime.MemStats
	allocs, bytes uint64
}

func (a *allocMeter) start() {
	runtime.ReadMemStats(&a.ms)
	a.allocs -= a.ms.Mallocs
	a.bytes -= a.ms.TotalAlloc
}

func (a *allocMeter) stop() {
	runtime.ReadMemStats(&a.ms)
	a.allocs += a.ms.Mallocs
	a.bytes += a.ms.TotalAlloc
}

// liveHeap is the live heap in bytes after a forced GC.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heldBytes runs alloc and returns the live heap it added. The benchmark
// measures its own inputs and result buffers this way, so that heap_mb
// can leave them out and report the program's heap alone.
func heldBytes(alloc func()) int64 {
	before := liveHeap()
	alloc()
	return liveHeap() - before
}

// frameResult is one frame-workload run.
type frameResult struct {
	lat      [2][]int64 // thread CPU ns per timed Operate call: [0] untraced, [1] traced frames
	missions []int64    // thread CPU ns per timed mission of an untraced run: the sum of its calls
	classes  []int      // delivered class per timed frame, in order

	frames, failed int64

	// Over the fixed window of windowMissions missions.
	winFrames                        int64
	allocs, bytes                    uint64
	heap                             int64 // live heap at the window end, less the benchmark's plan and buffers
	logRecords                       int64
	anomalies, quarantines, restores int64
	runQuarantines, runRestores      int64
	goldenFails, driftAlarms         int64
	agree, nonFallback               int64
	logErr                           error
	winLo, winHi                     int64 // frame ids of the window
}

// runFrames drives the loop for at least the window and until seconds
// have passed. With t set, every other frame swaps the timing decorators
// in, so traced and untraced frames interleave on the same System, in the
// same host state, and their difference is the tracing overhead.
func runFrames(st *frameState, seconds float64, t *tracer) (frameResult, error) {
	sys := st.sys
	// Frame latency is read on the loop thread's CPU clock; Operate runs
	// on the calling goroutine, so that is the time Operate ran.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if _, err := threadCPU(); err != nil {
		return frameResult{}, fmt.Errorf("thread CPU clock: %w", err)
	}
	var tp tap
	bare := currentSeams(sys)
	plain, err := decorate(bare, nil, &tp)
	if err != nil {
		return frameResult{}, err
	}
	traced := plain
	if t != nil {
		if traced, err = decorate(bare, t, &tp); err != nil {
			return frameResult{}, err
		}
	}
	defer bare.apply(sys)

	nClasses := len(sys.Classes)
	last := warmMissions + st.window // first mission after the window
	estFrames := int(seconds*4000) + last*missionFrames
	// The result buffers are sized up front so that none grows before the
	// window ends, and measured so that heap_mb can leave them out.
	// delivered[slot*nClasses+c] counts non-fallback deliveries of class
	// c for plan slot slot, checked against the model after the run.
	var delivered []int64
	var res frameResult
	buffers := heldBytes(func() {
		delivered = make([]int64, len(st.plan)*missionFrames*nClasses)
		res = frameResult{
			classes:  make([]int, 0, estFrames),
			missions: make([]int64, 0, estFrames/missionFrames+1),
			winLo:    warmMissions * missionFrames,
			winHi:    int64(last * missionFrames),
		}
		res.lat[0] = make([]int64, 0, estFrames)
		if t != nil {
			res.lat[1] = make([]int64, 0, estFrames/2)
		}
	})
	var meter allocMeter
	var deadline time.Time
	for m := 0; ; m++ {
		if m == warmMissions {
			deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
		}
		if m >= last && time.Now().After(deadline) {
			break
		}
		pm := &st.plan[m%len(st.plan)]
		timed := m >= warmMissions
		inWindow := timed && m < last
		plain.apply(sys)
		if st.faulted {
			sys.FDIR.Reset()
		}
		logBefore := sys.Log.Len()
		if inWindow {
			meter.start()
		}
		var missionNS int64
		for f, x := range pm.frames {
			if f == pm.seu {
				if inWindow {
					meter.stop()
				}
				if err := fdir.InjectSEU(sys.Net, seuFlips, pm.seuSeed); err != nil {
					return res, fmt.Errorf("inject weight upset: %w", err)
				}
				if inWindow {
					meter.start()
				}
			}
			var tr *tracer
			if t != nil && f%2 == 1 {
				tr = t
				tr.id = int64(m*missionFrames + f)
				traced.apply(sys)
			} else if t != nil {
				plain.apply(sys)
			}
			tp.class, tp.fallback = noClass, false
			c0, _ := threadCPU()
			root := tr.begin(layOperate)
			rep := sys.Operate(single{x}, st.drift)
			tr.end(root)
			c1, _ := threadCPU()
			ns := c1 - c0
			if t != nil {
				// Every frame of the traced run runs the engine beside it,
				// so untraced frames follow the same work as traced ones.
				i := tr.begin(layInfer)
				sys.Engine.Infer(x)
				tr.end(i)
			}

			if rep.Frames != 1 || tp.class < -1 || tp.class >= nClasses {
				res.failed++
			} else if !tp.fallback {
				slot := (m%len(st.plan))*missionFrames + f
				delivered[slot*nClasses+tp.class]++
			}
			if rep.DriftAlarm {
				// The operator acknowledges the maintenance alarm and
				// re-arms the detector, as a deployed loop would.
				st.drift.Reset()
				if inWindow {
					res.driftAlarms++
				}
			}
			res.runQuarantines += int64(rep.Quarantines)
			res.runRestores += int64(rep.Restores)
			if inWindow {
				res.anomalies += int64(rep.Anomalies)
				res.quarantines += int64(rep.Quarantines)
				res.restores += int64(rep.Restores)
			}
			if timed {
				res.frames++
				res.classes = append(res.classes, tp.class)
				if tr != nil {
					res.lat[1] = append(res.lat[1], ns)
				} else {
					res.lat[0] = append(res.lat[0], ns)
				}
				missionNS += ns
			}
		}
		if inWindow {
			meter.stop()
			res.winFrames += missionFrames
			res.logRecords += int64(sys.Log.Len() - logBefore)
		}
		if st.faulted && !sys.FDIR.Golden.Verify(sys.Net) {
			res.goldenFails++
		}
		if timed && t == nil {
			res.missions = append(res.missions, missionNS)
		}
		if m == last-1 {
			res.heap = liveHeap() - st.held - buffers
		}
	}
	res.allocs, res.bytes = meter.allocs, meter.bytes
	res.logErr = sys.Log.Verify()
	for slot := 0; slot < len(st.plan)*missionFrames; slot++ {
		want, _ := sys.Net.Predict(st.plan[slot/missionFrames].frames[slot%missionFrames])
		for c := 0; c < nClasses; c++ {
			n := delivered[slot*nClasses+c]
			res.nonFallback += n
			if c == want {
				res.agree += n
			}
		}
	}
	return res, nil
}

// frameChecks returns the output checks a frame run failed, if any.
func frameChecks(st *frameState, r frameResult) []string {
	var bad []string
	if r.logErr != nil {
		bad = append(bad, "evidence log: "+r.logErr.Error())
	}
	minAgree := 0.9 // core.Config.MinAgreement at its default
	if r.nonFallback == 0 || float64(r.agree) < minAgree*float64(r.nonFallback) {
		bad = append(bad, fmt.Sprintf("delivered classes agree with the model on %d of %d non-fallback frames, below %.2f",
			r.agree, r.nonFallback, minAgree))
	}
	if st.faulted {
		if r.runQuarantines == 0 || r.runRestores == 0 {
			bad = append(bad, fmt.Sprintf("faulted stream recorded %d quarantines and %d restores; want both > 0",
				r.runQuarantines, r.runRestores))
		}
		if r.goldenFails > 0 {
			bad = append(bad, fmt.Sprintf("live weights differ from the golden image at %d mission ends", r.goldenFails))
		}
	}
	return bad
}

// frameMetrics reports an untraced frame run's end-to-end metrics.
// Latency is on the loop thread's CPU clock. A window is one pass over
// the plan (blockMissions missions), so every window sees the same
// inputs and fault load; each figure is taken per window and read at the
// slow state (slowQ) of the windows, so a tail is never below its
// median. See README.md, Statistics.
func frameMetrics(r frameResult, m metrics) {
	frames, window := r.lat[0], blockMissions*missionFrames
	m["frames_per_s"] = 1e9 / windowed(frames, window, mean, slowQ)
	m["frame_p50_us"] = windowed(frames, window, p50, slowQ) / 1e3
	m["frame_p90_us"] = windowed(frames, window, p90, slowQ) / 1e3
	m["round_p50_ms"] = windowed(r.missions, blockMissions, p50, slowQ) / 1e6
	m["round_p90_ms"] = windowed(r.missions, blockMissions, p90, slowQ) / 1e6
	m["allocs_per_frame"] = float64(r.allocs) / float64(r.winFrames)
	m["bytes_per_frame"] = float64(r.bytes) / float64(r.winFrames)
	m["heap_mb"] = float64(r.heap) / 1e6
}

// frameLayers reports a traced frame run's per-layer metrics. Times are
// µs per traced frame (so the Operate parts add up to core.operate_us);
// calls are per traced frame of the window, so they repeat exactly.
func frameLayers(r frameResult, t *tracer, m metrics) error {
	self := selfTimes(t.spans)
	if err := checkSelfTimes(t.spans, self); err != nil {
		return err
	}
	all := sumLayers(t.spans, self, 0, 1<<62)
	win := sumLayers(t.spans, self, r.winLo, r.winHi)
	frames := float64(all.calls[layOperate])
	winFrames := float64(win.calls[layOperate])
	if frames == 0 || winFrames == 0 {
		return fmt.Errorf("traced run recorded no frames")
	}
	us := func(ns int64) float64 { return float64(ns) / frames / 1e3 }
	perFrame := func(l layer) float64 { return float64(win.calls[l]) / winFrames }
	m["core.operate_us"] = us(all.ns[layOperate])
	m["core.operate.self_us"] = us(all.selfN[layOperate])
	m["core.log_records_per_frame"] = float64(r.logRecords) / float64(r.winFrames)
	m["safety.decide.self_us"] = us(all.selfN[layDecide])
	m["safety.decide.calls_per_frame"] = perFrame(layDecide)
	m["nn.primary_us"] = us(all.ns[layPrimary])
	m["nn.primary.calls_per_frame"] = perFrame(layPrimary)
	m["supervisor.score_us"] = us(all.ns[layScore])
	m["supervisor.score.calls_per_frame"] = perFrame(layScore)
	m["supervisor.drift_alarms_per_frame"] = float64(r.driftAlarms) / float64(r.winFrames)
	m["fdir.probe_us"] = us(all.ns[layProbe])
	m["fdir.probe.calls_per_frame"] = perFrame(layProbe)
	m["fdir.fallback_us"] = us(all.ns[layFallback])
	m["fdir.fallback.calls_per_frame"] = perFrame(layFallback)
	m["fdir.anomalies_per_frame"] = float64(r.anomalies) / float64(r.winFrames)
	m["fdir.quarantines"] = float64(r.quarantines)
	m["fdir.restores"] = float64(r.restores)
	m["qnn.infer_us"] = float64(all.ns[layInfer]) / float64(all.calls[layInfer]) / 1e3
	// Traced and untraced frames alternate; pair each block of traced
	// frames with the untraced frames between them.
	block := blockMissions * missionFrames
	var untraced, traced [][]int64
	for lo := 0; lo+block <= len(r.lat[0]) && lo+block <= len(r.lat[1]); lo += block {
		untraced, traced = append(untraced, r.lat[0][lo:lo+block]), append(traced, r.lat[1][lo:lo+block])
	}
	m["trace.overhead_us"] = pairedOverhead(untraced, traced) / 1e3
	return nil
}
