package main

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"

	"safexplain/internal/fdir"
	"safexplain/internal/obs"
)

const testSeed = 7

// bareClasses runs the plan the way runFrames does, with no decorators
// installed, and reads each frame's delivered class from the System's
// own flight recorder (the infer span Operate records after delivery).
func bareClasses(t *testing.T, faulted bool, missions int) []int {
	t.Helper()
	st, _, err := setupFrames(testSeed, faulted)
	if err != nil {
		t.Fatal(err)
	}
	sys := st.sys
	var out []int
	for m := 0; m < missions; m++ {
		pm := &st.plan[m%len(st.plan)]
		if faulted {
			sys.FDIR.Reset()
		}
		for f, x := range pm.frames {
			if f == pm.seu {
				if err := fdir.InjectSEU(sys.Net, seuFlips, pm.seuSeed); err != nil {
					t.Fatal(err)
				}
			}
			if sys.Operate(single{x}, st.drift).DriftAlarm {
				st.drift.Reset()
			}
			spans := sys.Obs.Flight.Spans()
			class := noClass
			for i := len(spans) - 1; i >= 0; i-- {
				if spans[i].Stage == obs.StageInfer {
					class = int(spans[i].Code)
					break
				}
			}
			out = append(out, class)
		}
	}
	return out
}

func classHash(classes []int) [32]byte {
	b := make([]byte, 0, 8*len(classes))
	for _, c := range classes {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(c)))
	}
	return sha256.Sum256(b)
}

// tracedFrames runs a short traced frame run: the window only.
func tracedFrames(t *testing.T, faulted bool, window int) (frameResult, *tracer) {
	t.Helper()
	st, _, err := setupFrames(testSeed, faulted)
	if err != nil {
		t.Fatal(err)
	}
	st.window = window
	tr := newTracer(1 << 14)
	r, err := runFrames(st, 1e-9, tr)
	if err != nil {
		t.Fatal(err)
	}
	if bad := frameChecks(st, r); len(bad) > 0 || r.failed > 0 {
		t.Fatalf("checks failed: %v (%d failed frames)", bad, r.failed)
	}
	return r, tr
}

func TestSeamsKeepDeliveredClasses(t *testing.T) {
	const window = 2 * blockMissions
	for _, faulted := range []bool{false, true} {
		r, _ := tracedFrames(t, faulted, window)
		bare := bareClasses(t, faulted, warmMissions+window)[warmMissions*missionFrames:]
		if len(r.classes) != len(bare) {
			t.Fatalf("faulted=%v: decorated run delivered %d frames, bare run %d", faulted, len(r.classes), len(bare))
		}
		if classHash(r.classes) != classHash(bare) {
			i := 0
			for i < len(bare) && bare[i] == r.classes[i] {
				i++
			}
			t.Fatalf("faulted=%v: delivered classes differ from the bare run, first at timed frame %d", faulted, i)
		}
	}
}

// TestSelfTimesAddUp checks that the self times of a traced run add up
// with its child spans to every Operate root, and that checkSelfTimes,
// which every traced run applies, rejects spans that do not nest.
func TestSelfTimesAddUp(t *testing.T) {
	_, tr := tracedFrames(t, true, blockMissions)
	self := selfTimes(tr.spans)
	if err := checkSelfTimes(tr.spans, self); err != nil {
		t.Fatal(err)
	}
	// Find an Operate root with two children, then break the nesting.
	root, first, second := -1, -1, -1
	for i, s := range tr.spans {
		switch {
		case s.layer == layOperate:
			root, first, second = i, -1, -1
		case root >= 0 && int(s.parent) == root && first < 0:
			first = i
		case root >= 0 && int(s.parent) == root && second < 0:
			second = i
		}
		if second >= 0 {
			break
		}
	}
	if second < 0 {
		t.Fatal("no Operate root with two children traced")
	}
	outside := slices.Clone(tr.spans)
	outside[first].start = outside[root].start - 1
	overlap := slices.Clone(tr.spans)
	overlap[second].start = overlap[first].end - 1
	for name, spans := range map[string][]span{"child outside its root": outside, "overlapping children": overlap} {
		if err := checkSelfTimes(spans, selfTimes(spans)); err == nil {
			t.Errorf("%s: checkSelfTimes accepted the spans", name)
		}
	}
}

func TestCallsPerFrame(t *testing.T) {
	cases := []struct {
		faulted bool
		want    map[string]float64
	}{
		{false, map[string]float64{
			"fdir.probe.calls_per_frame":       1,
			"supervisor.score.calls_per_frame": 2,
			"safety.decide.calls_per_frame":    1,
			"fdir.fallback.calls_per_frame":    0,
		}},
		{true, map[string]float64{"fdir.probe.calls_per_frame": 1}},
	}
	for _, c := range cases {
		r, tr := tracedFrames(t, c.faulted, blockMissions)
		m := metrics{}
		if err := frameLayers(r, tr, m); err != nil {
			t.Fatal(err)
		}
		for name, want := range c.want {
			if m[name] != want {
				t.Errorf("faulted=%v: %s = %v, want %v", c.faulted, name, m[name], want)
			}
		}
		// Each frame is either decided by the pattern in service or
		// handed to the FDIR fallback, never both.
		if got := m["safety.decide.calls_per_frame"] + m["fdir.fallback.calls_per_frame"]; got != 1 {
			t.Errorf("faulted=%v: decide + fallback calls per frame = %v, want 1", c.faulted, got)
		}
		if c.faulted && (m["fdir.quarantines"] == 0 || m["fdir.restores"] == 0) {
			t.Errorf("faulted run recorded no quarantine or restore: %v", m)
		}
	}
}

func TestUplinkPasses(t *testing.T) {
	st, _, err := setupUplink(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	st.window = 4
	tr := newTracer(1 << 12)
	r, err := runUplink(st, 1e-9, tr)
	if err != nil {
		t.Fatal(err)
	}
	if bad := uplinkChecks(r); len(bad) > 0 || r.failed > 0 {
		t.Fatalf("checks failed: %v (%d failed frames)", bad, r.failed)
	}
	m := metrics{}
	if err := uplinkLayers(r, tr, m); err != nil {
		t.Fatal(err)
	}
	if want := float64(st.window) * float64(r.passLen); m["fleetnet.applied_frames"] != want {
		t.Errorf("applied %v frames at the global node, submitted %v", m["fleetnet.applied_frames"], want)
	}
	if m["fleetnet.relayed_frames"] != 2*m["fleetnet.applied_frames"] {
		t.Errorf("relayed %v frames, want twice the %v applied (unit and region uplinks)",
			m["fleetnet.relayed_frames"], m["fleetnet.applied_frames"])
	}
}
