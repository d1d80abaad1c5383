package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"safexplain/internal/fleet"
	"safexplain/internal/fleetnet"
	"safexplain/internal/obs"
	"safexplain/internal/tensor"
)

// The fleet-uplink workload replays captured downlink telemetry through
// a unit → region → global fleetnet tree over in-process pipes. Its
// traffic is the `safexplain fleet` command's defaults
// (cmd/safexplain/fleet.go): -units 6 streams of -frames 200 at -budget
// 320 bytes per frame, the first -faulty 3 carrying the staggered sensor
// fault (the frame-faulted plan, one mission per unit). A pass builds a
// fresh tree and sends every stream in rounds; a round is one watch tick
// of that command, -watch-every 8 ingest rounds that each take the next
// frame of every unit in turn, closed by a drain of the unit node and
// then the region node: the barrier experiment T18 draws before each
// watch sample, so that the tick sees every frame of the round.
const (
	uplinkUnits      = planMissions // unit streams (fleet -units)
	uplinkTickFrames = 8            // frames per unit per round (fleet -watch-every)
	downlinkBytes    = 320          // downlink budget per operated frame (fleet -budget)
	windowPasses     = 40           // passes in the fixed window that counts allocations and heap
)

type uplinkState struct {
	chunks [][][]byte // per unit, its telemetry, one frame per chunk
	ref    []byte     // canonical report of a flat fleet.Aggregator over all units
	window int        // passes in the fixed window
}

// frameList is a batched stream: each unit's telemetry is captured by
// one Operate call over its mission, so its frame numbers run in order.
type frameList []*tensor.Tensor

func (l frameList) Len() int                           { return len(l) }
func (l frameList) Sample(i int) (*tensor.Tensor, int) { return l[i], -1 }

// setupUplink builds the System and captures each unit's telemetry by
// operating one faulted mission per unit, each from a reset FDIR, with
// a drift detector and a downlink of its own.
func setupUplink(seed uint64) (*uplinkState, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	sys, err := buildSystem()
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t0).Seconds()
	t1 := time.Now()
	plan := makePlan(seed, true)
	st.generate = time.Since(t1).Seconds()
	chunks := make([][][]byte, uplinkUnits)
	for u := range chunks {
		drift, err := sys.NewDriftDetector(0, 0)
		if err != nil {
			return nil, st, err
		}
		sys.FDIR.Reset()
		link := obs.NewDownlink(obs.DownlinkConfig{BytesPerFrame: downlinkBytes})
		sys.Obs.AttachDownlink(link)
		sys.Operate(frameList(plan[u].frames), drift)
		if chunks[u] = fleet.SplitFrames(link.Capture()); len(chunks[u]) == 0 {
			return nil, st, fmt.Errorf("unit %d: telemetry capture produced no frames", u)
		}
	}
	ref, err := flatReport(chunks, nil)
	if err != nil {
		return nil, st, err
	}
	st.total = time.Since(t0).Seconds()
	return &uplinkState{chunks: chunks, ref: ref, window: windowPasses}, st, nil
}

// flatReport ingests every unit's stream into one flat aggregator and
// returns its canonical report: the bytes the tree must reproduce. With
// a tracer, each unit's ingest is a root span.
func flatReport(chunks [][][]byte, t *tracer) ([]byte, error) {
	agg := fleet.New(fleet.Config{})
	for u, unit := range chunks {
		i := t.begin(layIngest)
		for _, c := range unit {
			agg.Ingest(fleet.UnitID(u), c)
		}
		t.end(i)
	}
	rep, err := agg.Report()
	if err != nil {
		return nil, fmt.Errorf("flat report: %w", err)
	}
	return rep.CanonicalJSON()
}

type tree struct{ unit, region, global *fleetnet.Node }

func newTree() tree {
	link := func(c fleetnet.NodeConfig) fleetnet.NodeConfig {
		c.BackoffBase = time.Millisecond
		c.BackoffMax = 25 * time.Millisecond
		return c
	}
	pipeTo := func(parent *fleetnet.Node) func() (net.Conn, error) {
		return func() (net.Conn, error) {
			c, s := net.Pipe()
			parent.ServeConn(s)
			return c, nil
		}
	}
	var tr tree
	tr.global = fleetnet.NewNode(link(fleetnet.NodeConfig{ID: 1000, Tier: fleetnet.TierGlobal}))
	tr.region = fleetnet.NewNode(link(fleetnet.NodeConfig{ID: 100, Tier: fleetnet.TierRegion, Dial: pipeTo(tr.global)}))
	tr.unit = fleetnet.NewNode(link(fleetnet.NodeConfig{ID: 1, Tier: fleetnet.TierUnit, Dial: pipeTo(tr.region)}))
	return tr
}

// connected waits until both uplinks hold a session, so the first round
// of a pass does not time the dial and handshake.
func (tr tree) connected(ctx context.Context) error {
	for {
		us, _ := tr.unit.UplinkStatus()
		rs, _ := tr.region.UplinkStatus()
		if us.Connected && rs.Connected {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("tree links did not connect: %w", ctx.Err())
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// uplinkResult is one fleet-uplink run.
type uplinkResult struct {
	frameLat [2][][]int64 // per pass, ns from each frame's Submit to its round's end: [0] untraced, [1] traced
	rounds   []int64      // ns per untraced round
	passNS   []int64      // ns of rounds per untraced pass
	passLen  int64        // frames per pass

	round                         int64 // rounds sent so far
	submitted, failed, badReports int64
	resumes, drops, lost, dups    uint64
	leakedGoroutines              int

	// Over the fixed window of st.window passes.
	winFrames        int64
	allocs, bytes    uint64
	heap             int64 // the tree's live heap at the end of the window's last pass
	applied, relayed uint64
}

func runUplink(st *uplinkState, seconds float64, t *tracer) (uplinkResult, error) {
	// The tree runs on one P: its goroutines hand frames to each other
	// through the Go scheduler instead of waking a thread on the other
	// vCPU, whose wake-up latency on a shared host measured the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	baseGoroutines := runtime.NumGoroutine()
	res := uplinkResult{rounds: make([]int64, 0, int(seconds*2000)+st.window*roundsPerPass(st))}
	for _, unit := range st.chunks {
		res.passLen += int64(len(unit))
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass < st.window || time.Now().Before(deadline); pass++ {
		var tr *tracer
		if t != nil && pass%2 == 1 {
			tr = t
		}
		if err := res.pass(st, tr, pass < st.window, pass == st.window-1); err != nil {
			return res, err
		}
	}
	// Every node is closed; wait for their goroutines to exit.
	for wait := 0; runtime.NumGoroutine() > baseGoroutines && wait < 500; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	res.leakedGoroutines = max(0, runtime.NumGoroutine()-baseGoroutines)
	return res, nil
}

// roundsPerPass is the number of rounds that send every stream once.
func roundsPerPass(st *uplinkState) int {
	longest := 0
	for _, unit := range st.chunks {
		longest = max(longest, len(unit))
	}
	return (longest + uplinkTickFrames - 1) / uplinkTickFrames
}

// pass builds a fresh tree, sends every unit's whole stream through it in
// rounds, closes it, and checks what reached the global node: every frame
// applied once, none lost or duplicated, and a canonical report
// byte-identical to the flat reference. At the window's end it takes the
// live heap the tree added, from before the tree is built to after its
// last round.
func (res *uplinkResult) pass(st *uplinkState, tr *tracer, inWindow, windowEnd bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lat := make([]int64, 0, res.passLen)
	var base int64
	if windowEnd {
		base = liveHeap()
	}
	nodes := newTree()
	lat, passNS, err := res.send(ctx, st, nodes, tr, inWindow, lat)
	if err == nil && windowEnd {
		res.heap = liveHeap() - base
	}
	if tr != nil {
		res.frameLat[1] = append(res.frameLat[1], lat)
	} else {
		res.frameLat[0] = append(res.frameLat[0], lat)
		res.passNS = append(res.passNS, passNS)
	}
	var relayed, applied uint64
	for _, n := range []*fleetnet.Node{nodes.unit, nodes.region} {
		us, _ := n.UplinkStatus()
		relayed += us.Sent
		res.resumes += us.Resumes
		res.drops += us.Drops
	}
	for _, n := range []*fleetnet.Node{nodes.region, nodes.global} {
		for _, l := range n.Coverage().Links {
			if n == nodes.global {
				applied += l.Applied
			}
			res.lost += l.Lost
			res.dups += l.Dups
		}
	}
	for _, n := range []*fleetnet.Node{nodes.unit, nodes.region, nodes.global} {
		if cerr := n.Close(ctx); err == nil && cerr != nil {
			err = fmt.Errorf("close %s: %w", n.Name(), cerr)
		}
	}
	if err != nil {
		return err
	}
	rep, err := nodes.global.Fleet().Report()
	if err != nil {
		return fmt.Errorf("global report: %w", err)
	}
	got, err := rep.CanonicalJSON()
	if err != nil {
		return fmt.Errorf("global report: %w", err)
	}
	if !bytes.Equal(got, st.ref) {
		res.badReports++
	}
	res.submitted += res.passLen
	if d := int64(applied) - res.passLen; d != 0 {
		res.failed += max(d, -d)
	}
	if inWindow {
		res.applied += applied
		res.relayed += relayed
	}
	if tr != nil {
		_, err = flatReport(st.chunks, tr)
	}
	return err
}

// send runs one pass's rounds through the tree and returns lat with each
// frame's latency appended, and the time of the rounds. A round submits the next uplinkTickFrames frames of
// every unit, one frame of each unit in turn, then drains the unit node
// and the region node.
func (res *uplinkResult) send(ctx context.Context, st *uplinkState, nodes tree, tr *tracer, inWindow bool, lat []int64) ([]int64, int64, error) {
	if err := nodes.connected(ctx); err != nil {
		return lat, 0, err
	}
	var offs [uplinkUnits * uplinkTickFrames]int64
	var meter allocMeter
	if inWindow {
		meter.start()
	}
	var passNS int64
	for lo, n := 0, roundsPerPass(st)*uplinkTickFrames; lo < n; lo += uplinkTickFrames {
		if tr != nil {
			tr.id = res.round
		}
		k := 0
		start := time.Now()
		root := tr.begin(layRound)
		i := tr.begin(laySubmit)
		for f := lo; f < lo+uplinkTickFrames; f++ {
			for u, unit := range st.chunks {
				if f < len(unit) {
					offs[k] = int64(time.Since(start))
					k++
					nodes.unit.Submit(fleet.UnitID(u), unit[f])
				}
			}
		}
		tr.end(i)
		i = tr.begin(layUnitDrain)
		err := nodes.unit.Drain(ctx)
		tr.end(i)
		if err == nil {
			i = tr.begin(layRegionDrain)
			err = nodes.region.Drain(ctx)
			tr.end(i)
		}
		tr.end(root)
		ns := int64(time.Since(start))
		if err != nil {
			return lat, passNS, fmt.Errorf("round %d: drain: %w", res.round, err)
		}
		for _, off := range offs[:k] {
			lat = append(lat, ns-off)
		}
		if tr == nil {
			res.rounds = append(res.rounds, ns)
		}
		passNS += ns
		res.round++
	}
	if inWindow {
		meter.stop()
		res.allocs += meter.allocs
		res.bytes += meter.bytes
		res.winFrames += res.passLen
	}
	return lat, passNS, nil
}

func uplinkChecks(r uplinkResult) []string {
	var bad []string
	if r.badReports > 0 {
		bad = append(bad, fmt.Sprintf("%d passes: global report differs from the flat reference", r.badReports))
	}
	if r.lost > 0 || r.dups > 0 {
		bad = append(bad, fmt.Sprintf("links lost %d and duplicated %d frames", r.lost, r.dups))
	}
	if r.leakedGoroutines > 0 {
		bad = append(bad, fmt.Sprintf("%d goroutines still running after every node closed", r.leakedGoroutines))
	}
	return bad
}

// uplinkMetrics reports an untraced fleet run's end-to-end metrics. A
// telemetry frame's latency runs from its Submit call to the end of its
// round, when the global node has applied it. Every figure is over the
// whole run. See README.md, Statistics.
func uplinkMetrics(r uplinkResult, m metrics) {
	var lat []int64
	for _, p := range r.frameLat[0] {
		lat = append(lat, p...)
	}
	var ns float64
	for _, p := range r.passNS {
		ns += float64(p)
	}
	frames, rounds := sortedFloats(lat), sortedFloats(r.rounds)
	m["frames_per_s"] = float64(len(lat)) / (ns / 1e9)
	m["frame_p50_us"] = p50(frames) / 1e3
	m["frame_p90_us"] = p90(frames) / 1e3
	m["round_p50_ms"] = p50(rounds) / 1e6
	m["round_p90_ms"] = p90(rounds) / 1e6
	m["allocs_per_frame"] = float64(r.allocs) / float64(r.winFrames)
	m["bytes_per_frame"] = float64(r.bytes) / float64(r.winFrames)
	m["heap_mb"] = float64(r.heap) / 1e6
}

// uplinkLayers reports a traced fleet run's per-layer metrics.
func uplinkLayers(r uplinkResult, t *tracer, m metrics) error {
	self := selfTimes(t.spans)
	if err := checkSelfTimes(t.spans, self); err != nil {
		return err
	}
	all := sumLayers(t.spans, self, 0, 1<<62)
	rounds := float64(all.calls[layRound])
	if rounds == 0 {
		return fmt.Errorf("traced run recorded no rounds")
	}
	traced := float64(len(r.frameLat[1])) * float64(r.passLen)
	m["fleetnet.submit_us_per_frame"] = float64(all.ns[laySubmit]) / traced / 1e3
	m["fleetnet.unit_drain_ms"] = float64(all.ns[layUnitDrain]) / rounds / 1e6
	m["fleetnet.region_drain_ms"] = float64(all.ns[layRegionDrain]) / rounds / 1e6
	m["fleetnet.applied_frames"] = float64(r.applied)
	m["fleetnet.relayed_frames"] = float64(r.relayed)
	m["fleetnet.resumes"] = float64(r.resumes)
	m["fleetnet.relay_drops"] = float64(r.drops)
	m["fleetnet.lost"] = float64(r.lost)
	m["fleetnet.dups"] = float64(r.dups)
	ingested := float64(all.calls[layIngest]) * float64(r.passLen) / uplinkUnits
	m["fleet.ingest_ns_per_frame"] = float64(all.ns[layIngest]) / ingested
	// Traced passes alternate with untraced ones; pair each untraced pass
	// with the traced pass after it.
	n := min(len(r.frameLat[0]), len(r.frameLat[1]))
	m["trace.overhead_us"] = pairedOverhead(r.frameLat[0][:n], r.frameLat[1][:n]) / 1e3
	return nil
}
