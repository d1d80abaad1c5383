package fleetnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"safexplain/internal/fleet"
	"safexplain/internal/obs"
	"safexplain/internal/prng"
	"safexplain/internal/prof"
	"safexplain/internal/tracequery"
)

// unitStream builds one unit's synthetic downlink capture: an infer span
// and housekeeping per frame, with an optional FDIR quarantine
// transition — enough structure that ledger divergence (a lost or
// duplicated frame) shows up in the canonical report bytes.
func unitStream(unit fleet.UnitID, frames, quarantineAt int) []byte {
	d := obs.NewDownlink(obs.DownlinkConfig{BytesPerFrame: 2048, QueueDepth: 64})
	seq := uint64(1)
	health := int32(0)
	for f := 0; f < frames; f++ {
		fi := int32(f)
		d.PushSpan(obs.TraceSpan{Seq: seq, Frame: fi, Stage: obs.StageInfer, Value: float64(f)})
		seq++
		if f == quarantineAt {
			d.PushSpan(obs.TraceSpan{Seq: seq, Frame: fi, Stage: obs.StageFDIR, Code: 2, Value: float64(health)})
			seq++
			health = 2
		}
		d.PushMetric(obs.MetricFrames, float64(f+1))
		d.PushMetric(obs.MetricFallbacks, float64(int(unit)%2))
		d.PushMetric(obs.MetricHealth, float64(health))
		d.EmitFrame(f)
	}
	return d.Capture()
}

// canonicalReport freezes an aggregator into its canonical JSON bytes.
func canonicalReport(t *testing.T, a *fleet.Aggregator) []byte {
	t.Helper()
	rep, err := a.Report()
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	b, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical json: %v", err)
	}
	return b
}

// flatBaseline ingests every stream into one local aggregator at the
// same per-frame granularity the tier links use — the fault-free
// reference the networked reports must match byte-for-byte.
func flatBaseline(t *testing.T, streams map[fleet.UnitID][]byte) []byte {
	t.Helper()
	a := fleet.New(fleet.Config{})
	units := make([]fleet.UnitID, 0, len(streams))
	for u := range streams {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	for _, u := range units {
		for _, chunk := range fleet.SplitFrames(streams[u]) {
			a.Ingest(u, chunk)
		}
	}
	return canonicalReport(t, a)
}

// pipeDial returns a dialer whose every connection is a fresh net.Pipe
// served by parent — the loopback transport the link tests run on.
func pipeDial(parent *Node) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		parent.ServeConn(s)
		return c, nil
	}
}

// testLink is the fast link sizing the tests use.
func testLink(cfg NodeConfig) NodeConfig {
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 20 * time.Millisecond
	cfg.IOTimeout = 250 * time.Millisecond
	return cfg
}

// submitAll feeds a unit node its stream one frame chunk at a time.
func submitAll(n *Node, unit fleet.UnitID, stream []byte) {
	for _, chunk := range fleet.SplitFrames(stream) {
		n.Submit(unit, chunk)
	}
}

func drain(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func closeNode(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// envMsg wraps one envelope as a tier-link message.
func envMsg(seq uint64, sub Sub, id uint32, payload []byte) Msg {
	return Msg{Kind: KindEnv, Env: Envelope{Seq: seq, Sub: sub, ID: id, Payload: payload}}
}

// sameMsg compares two messages field by field, payloads by content (a
// decoded empty payload is empty, not nil).
func sameMsg(a, b Msg) bool {
	pa, pb := a.Env.Payload, b.Env.Payload
	a.Env.Payload, b.Env.Payload = nil, nil
	return reflect.DeepEqual(a, b) && bytes.Equal(pa, pb)
}

// wireMsgs is one message of every kind and every envelope subtype, with
// empty, realistic and MaxPayload-sized payloads.
func wireMsgs(t *testing.T) []Msg {
	t.Helper()
	hop := tracequery.EncodeHop(tracequery.Hop{Unit: 9, Frame: 4, Node: 100, Tier: "region", Ingest: 11, Relay: 12})
	src := unitProfile(t, "u1", 700)
	rec, err := prof.AppendSiteRecord(nil, src.BlockSize, 1, src.Sites[1])
	if err != nil {
		t.Fatalf("AppendSiteRecord: %v", err)
	}
	full := bytes.Repeat([]byte{0xa5}, MaxPayload)
	return []Msg{
		{Kind: KindHello, Node: 42, Tier: TierRegion},
		{Kind: KindWelcome, Ack: 1<<40 + 7},
		{Kind: KindAck, Ack: 12345},
		envMsg(9001, SubData, 17, []byte("frame-bytes")),
		envMsg(1, SubData, uint32(0xfffffffd), nil), // unit -3
		envMsg(2, SubData, 5, full),
		envMsg(77, SubAlert, 3, []byte(`{"origin":"unit-3"}`)),
		envMsg(3, SubAlert, 0, nil),
		envMsg(4, SubAlert, 1, full),
		envMsg(5, SubHop, 100, hop),
		envMsg(6, SubHop, 100, nil),
		envMsg(7, SubHop, 2, full),
		envMsg(9, SubProfile, 7, rec),
		envMsg(10, SubProfile, 7, nil),
		envMsg(11, SubProfile, 8, full),
	}
}

func TestMsgRoundTrip(t *testing.T) {
	for _, want := range wireMsgs(t) {
		enc := AppendMsg(nil, want)
		got, n, err := DecodeMsg(enc)
		if err != nil {
			t.Fatalf("%v/%d: decode: %v", want.Kind, want.Env.Sub, err)
		}
		if n != len(enc) {
			t.Fatalf("%v/%d: consumed %d of %d bytes", want.Kind, want.Env.Sub, n, len(enc))
		}
		if !sameMsg(got, want) {
			t.Fatalf("%v/%d: round trip %+v != %+v", want.Kind, want.Env.Sub, got, want)
		}
	}
}

// TestConnFraming writes every kind and subtype back to back through one
// msgConn over a pipe and reads them back: framing must assemble each
// message from its header alone, whatever it carries.
func TestConnFraming(t *testing.T) {
	msgs := wireMsgs(t)
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	go func() {
		mc := newMsgConn(cc, time.Second)
		for _, m := range msgs {
			if mc.write(m) != nil {
				return
			}
		}
	}()
	mc := newMsgConn(sc, time.Second)
	for i, want := range msgs {
		got, err := mc.read(2 * time.Second)
		if err != nil {
			t.Fatalf("message %d (%v/%d): read: %v", i, want.Kind, want.Env.Sub, err)
		}
		if !sameMsg(got, want) {
			t.Fatalf("message %d: read %+v, want %+v", i, got, want)
		}
	}
}

// TestConnRejectsOversizedLength sends only a header whose declared body
// length exceeds the bound: the reader must fail at once with
// ErrLinkCorrupt instead of waiting for a body that is not coming.
func TestConnRejectsOversizedLength(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	hdr := []byte{linkMagic0, linkMagic1, linkVersion, byte(KindEnv), 0, 0}
	binary.LittleEndian.PutUint16(hdr[4:], maxBodyLen+1)
	go cc.Write(hdr)
	start := time.Now()
	_, err := newMsgConn(sc, time.Second).read(10 * time.Second)
	if !errors.Is(err, ErrLinkCorrupt) {
		t.Fatalf("read = %v, want ErrLinkCorrupt", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("read took %v; it must not wait for the body", d)
	}
}

func TestDecodeMsgCorrupt(t *testing.T) {
	valid := AppendMsg(nil, envMsg(5, SubData, 2, []byte("abc")))
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := DecodeMsg(valid[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	hello := AppendMsg(nil, Msg{Kind: KindHello, Node: 1, Tier: TierUnit})
	for _, mut := range []struct {
		name string
		msg  []byte
		at   int
		to   byte
	}{
		{"magic0", valid, 0, 'X'},
		{"magic1", valid, 1, 'X'},
		{"version", valid, 2, 0x7f},
		{"kind", valid, 3, 0xee},
		{"length", valid, 4, valid[4] + 1},                           // declares a byte more than the input holds
		{"fixed-kind length", append(hello, 0), 4, helloBodyLen + 1}, // a hello must declare exactly 5
		{"subtype", valid, msgHeaderLen + 8, 0xee},
		{"zero subtype", valid, msgHeaderLen + 8, 0},
	} {
		b := append([]byte(nil), mut.msg...)
		b[mut.at] = mut.to
		if _, _, err := DecodeMsg(b); !errors.Is(err, ErrLinkCorrupt) {
			t.Fatalf("%s corruption: err = %v, want ErrLinkCorrupt", mut.name, err)
		}
	}
	// A declared body length past the bound must be rejected, not read.
	b := append([]byte(nil), valid...)
	b[4], b[5] = 0xff, 0xff
	if _, _, err := DecodeMsg(b); err == nil {
		t.Fatal("oversized body length decoded")
	}
}

func TestParseTier(t *testing.T) {
	for _, want := range []Tier{TierUnit, TierRegion, TierGlobal} {
		got, err := ParseTier(want.String())
		if err != nil || got != want {
			t.Fatalf("ParseTier(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParseTier("orbital"); err == nil {
		t.Fatal("unknown tier parsed")
	}
}

func TestBackoffSchedule(t *testing.T) {
	const base, max = 10 * time.Millisecond, 160 * time.Millisecond
	jitter := prng.New(7)
	for attempt := 0; attempt < 12; attempt++ {
		want := base << attempt
		if want > max || want <= 0 {
			want = max
		}
		d := backoffDelay(attempt, base, max, jitter)
		if d < want/2 || d > want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
		}
	}
	// Same seed, same schedule — reconnect storms replay deterministically.
	a, b := prng.New(3), prng.New(3)
	for attempt := 0; attempt < 8; attempt++ {
		if backoffDelay(attempt, base, max, a) != backoffDelay(attempt, base, max, b) {
			t.Fatalf("attempt %d: schedule not deterministic", attempt)
		}
	}
}

// TestLinkDelivery is the fault-free reference: three unit nodes uplink
// to one parent, whose merged report must be byte-identical to a flat
// local aggregation of the same streams.
func TestLinkDelivery(t *testing.T) {
	streams := map[fleet.UnitID][]byte{
		1: unitStream(1, 30, 5),
		2: unitStream(2, 30, -1),
		3: unitStream(3, 25, 12),
	}
	parent := NewNode(testLink(NodeConfig{ID: 100, Tier: TierGlobal}))
	for u, s := range streams {
		n := NewNode(testLink(NodeConfig{ID: uint32(u), Tier: TierUnit, Dial: pipeDial(parent)}))
		submitAll(n, u, s)
		drain(t, n)
		closeNode(t, n)
	}
	closeNode(t, parent)
	if got, want := canonicalReport(t, parent.Fleet()), flatBaseline(t, streams); !bytes.Equal(got, want) {
		t.Fatalf("networked report diverges from flat baseline:\n%s\n-- vs --\n%s", got, want)
	}
	cov := parent.Coverage()
	if cov.Children != 3 {
		t.Fatalf("coverage children = %d, want 3", cov.Children)
	}
}

// TestReconnectResume kills the link mid-stream (twice) while telemetry,
// trace hops and profile records share the one sequence space, and
// asserts the resume handshake recovers every envelope exactly once: the
// merged report matches the fault-free baseline byte-for-byte — a lost
// frame would show in the counts, a duplicated one too — and the
// parent's trace store and merged profile equal an uncut run's.
func TestReconnectResume(t *testing.T) {
	streams := map[fleet.UnitID][]byte{7: unitStream(7, 60, 9)}
	profiles := []prof.Report{unitProfile(t, "u7", 300), unitProfile(t, "u7", 500), unitProfile(t, "u7", 900)}
	type result struct {
		report, traces, profile []byte
		uplink                  UplinkStatus
		links                   []ChildStatus
	}
	run := func(cuts ...int) result {
		// One counter clock per node: each node stamps its hops in its
		// own sequence order, so the ticks repeat run to run.
		parent := NewNode(testLink(NodeConfig{ID: 100, Tier: TierGlobal, Clock: obs.NewCounterClock()}))
		cfg := testLink(NodeConfig{ID: 7, Tier: TierUnit, Clock: obs.NewCounterClock()})
		cfg.Dial = CutDial(pipeDial(parent), cuts...)
		n := NewNode(cfg)
		for i, chunk := range fleet.SplitFrames(streams[7]) {
			n.Submit(7, chunk)
			if p := i / 20; i%20 == 19 && p < len(profiles) {
				n.SubmitProfile(profiles[p])
			}
		}
		drain(t, n)
		st, ok := n.UplinkStatus()
		if !ok {
			t.Fatal("unit node has no uplink")
		}
		closeNode(t, n)
		closeNode(t, parent)
		traces, err := json.Marshal(parent.Traces().Bundles())
		if err != nil {
			t.Fatalf("traces: %v", err)
		}
		rep, ok := parent.ProfileReport()
		if !ok {
			t.Fatal("parent holds no profile")
		}
		profile, err := rep.Encode()
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		return result{canonicalReport(t, parent.Fleet()), traces, profile, st, parent.Coverage().Links}
	}
	cut, clean := run(700, 900), run()
	if cut.uplink.Resumes < 2 {
		t.Fatalf("resumes = %d, want >= 2 (two injected cuts)", cut.uplink.Resumes)
	}
	if cut.uplink.Drops != 0 {
		t.Fatalf("uplink drops = %d, want 0", cut.uplink.Drops)
	}
	for _, c := range cut.links {
		if c.Lost != 0 || c.Dups != 0 {
			t.Fatalf("link %d: %d lost, %d dups; resume must recover every envelope once", c.Node, c.Lost, c.Dups)
		}
	}
	if want := flatBaseline(t, streams); !bytes.Equal(cut.report, want) {
		t.Fatalf("report after reconnect/resume diverges from baseline:\n%s\n-- vs --\n%s", cut.report, want)
	}
	if !bytes.Equal(cut.traces, clean.traces) {
		t.Fatalf("trace store after reconnect/resume diverges from the uncut run:\n%s\n-- vs --\n%s", cut.traces, clean.traces)
	}
	if !bytes.Equal(cut.profile, clean.profile) {
		t.Fatalf("merged profile after reconnect/resume diverges from the uncut run:\n%s\n-- vs --\n%s", cut.profile, clean.profile)
	}
}

// TestPartitionDegradation partitions one of two children and asserts
// the parent keeps publishing — flagged degraded, with the healthy
// child's data fresh — then heals the link and checks exact convergence.
func TestPartitionDegradation(t *testing.T) {
	sA1, sA2 := unitStream(1, 20, -1), unitStream(1, 40, -1)
	sB1, sB2 := unitStream(2, 20, 4), unitStream(2, 40, 4)
	parent := NewNode(testLink(NodeConfig{ID: 100, Tier: TierGlobal}))
	gate := NewGate(true)

	cfgA := testLink(NodeConfig{ID: 1, Tier: TierUnit})
	cfgA.Dial = gate.Dial(pipeDial(parent))
	a := NewNode(cfgA)
	b := NewNode(testLink(NodeConfig{ID: 2, Tier: TierUnit, Dial: pipeDial(parent)}))

	// Phase 1: both children deliver their first 20 frames.
	submitAll(a, 1, sA1)
	submitAll(b, 2, sB1)
	drain(t, a)
	drain(t, b)

	// Partition child 1. Its session dies; redials fail at the gate.
	gate.Set(false)
	deadline := time.Now().Add(5 * time.Second)
	for parent.Coverage().Live != 1 {
		if time.Now().After(deadline) {
			t.Fatal("parent never observed the partition")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Child 1 keeps producing into its store-and-forward ring; child 2
	// keeps delivering.
	for _, chunk := range fleet.SplitFrames(sA2)[20:] {
		a.Submit(1, chunk)
	}
	for _, chunk := range fleet.SplitFrames(sB2)[20:] {
		b.Submit(2, chunk)
	}
	drain(t, b)

	// The degraded parent still publishes: flagged, never stalled, and
	// exactly the phase-1 picture for the partitioned child.
	cov := parent.Coverage()
	if !cov.Degraded || cov.Live != 1 || cov.Children != 2 {
		t.Fatalf("coverage = %+v, want degraded with 1 of 2 live", cov)
	}
	mid := canonicalReport(t, parent.Fleet())
	midWant := flatBaseline(t, map[fleet.UnitID][]byte{1: sA1, 2: sB2})
	if !bytes.Equal(mid, midWant) {
		t.Fatalf("degraded report diverges from the partial baseline:\n%s\n-- vs --\n%s", mid, midWant)
	}

	// Heal. The resume handshake replays the partition backlog.
	gate.Set(true)
	drain(t, a)
	closeNode(t, a)
	closeNode(t, b)
	closeNode(t, parent)
	if got, want := canonicalReport(t, parent.Fleet()), flatBaseline(t, map[fleet.UnitID][]byte{1: sA2, 2: sB2}); !bytes.Equal(got, want) {
		t.Fatalf("healed report diverges from baseline:\n%s\n-- vs --\n%s", got, want)
	}
	st, _ := a.UplinkStatus()
	if st.Resumes == 0 {
		t.Fatal("healing the partition should have resumed the session")
	}
	if st.DialFails == 0 {
		t.Fatal("the gate should have rejected dials during the partition")
	}
}

// TestReorderResequencing scrambles the send order inside a seeded
// window and asserts the parent's resequencing buffer restores sequence
// order exactly: no loss declarations, byte-identical report.
func TestReorderResequencing(t *testing.T) {
	streams := map[fleet.UnitID][]byte{3: unitStream(3, 80, 30)}
	parent := NewNode(testLink(NodeConfig{ID: 100, Tier: TierGlobal}))
	cfg := testLink(NodeConfig{ID: 3, Tier: TierUnit, Dial: pipeDial(parent)})
	cfg.ScrambleWindow = 8
	cfg.ScrambleSeed = 99
	n := NewNode(cfg)
	submitAll(n, 3, streams[3])
	drain(t, n)
	closeNode(t, n)
	closeNode(t, parent)
	for _, c := range parent.Coverage().Links {
		if c.Lost != 0 {
			t.Fatalf("reorder within the window declared %d lost", c.Lost)
		}
		if c.Dups != 0 {
			t.Fatalf("reorder produced %d duplicate applies", c.Dups)
		}
	}
	if got, want := canonicalReport(t, parent.Fleet()), flatBaseline(t, streams); !bytes.Equal(got, want) {
		t.Fatalf("report under reorder diverges from baseline:\n%s\n-- vs --\n%s", got, want)
	}
}

// TestUplinkOverflow checks the bounded send queue: with no reachable
// parent, the ring accepts its capacity and then drops newest with
// accounting — bounded memory, honest numbers.
func TestUplinkOverflow(t *testing.T) {
	u := NewUplink(UplinkConfig{
		Node: 1, Tier: TierUnit,
		Dial:        func() (net.Conn, error) { return nil, ErrGateClosed },
		Buffer:      4,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	defer u.Close()
	accepted := 0
	for i := 0; i < 10; i++ {
		if u.Send(SubData, 9, []byte("frame")) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d sends into a 4-slot ring", accepted)
	}
	st := u.Status()
	if st.Drops != 6 || st.Buffered != 4 {
		t.Fatalf("status = %+v, want 6 drops and 4 buffered", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := u.Drain(ctx); err == nil {
		t.Fatal("drain with an unreachable parent should time out")
	}
}

// TestIdleKeepalive leaves the link idle for several IO timeouts and
// asserts the keepalive acks hold the session — no reconnect churn on a
// quiet fleet.
func TestIdleKeepalive(t *testing.T) {
	streams := map[fleet.UnitID][]byte{5: unitStream(5, 10, -1)}
	// Both ends share the 50ms IO timeout: the parent keepalives at that
	// cadence, the child declares death at 4× of it.
	pcfg := testLink(NodeConfig{ID: 100, Tier: TierGlobal})
	pcfg.IOTimeout = 50 * time.Millisecond
	parent := NewNode(pcfg)
	cfg := testLink(NodeConfig{ID: 5, Tier: TierUnit, Dial: pipeDial(parent)})
	cfg.IOTimeout = 50 * time.Millisecond
	n := NewNode(cfg)
	chunks := fleet.SplitFrames(streams[5])
	for _, c := range chunks[:5] {
		n.Submit(5, c)
	}
	drain(t, n)
	time.Sleep(300 * time.Millisecond) // 6 IO timeouts of silence
	for _, c := range chunks[5:] {
		n.Submit(5, c)
	}
	drain(t, n)
	st, _ := n.UplinkStatus()
	if st.Sessions != 1 || st.Resumes != 0 {
		t.Fatalf("idle link churned: %d sessions, %d resumes", st.Sessions, st.Resumes)
	}
	closeNode(t, n)
	closeNode(t, parent)
	if got, want := canonicalReport(t, parent.Fleet()), flatBaseline(t, streams); !bytes.Equal(got, want) {
		t.Fatalf("report after idle period diverges:\n%s\n-- vs --\n%s", got, want)
	}
}

// TestThreeTierTree runs the full unit → region → global shape and
// asserts both the region's and the root's canonical reports equal the
// flat baseline — the relay preserves per-unit streams exactly.
func TestThreeTierTree(t *testing.T) {
	streams := map[fleet.UnitID][]byte{
		1: unitStream(1, 25, 3),
		2: unitStream(2, 25, -1),
		3: unitStream(3, 30, 11),
		4: unitStream(4, 15, -1),
	}
	global := NewNode(testLink(NodeConfig{ID: 100, Tier: TierGlobal}))
	region := NewNode(testLink(NodeConfig{ID: 10, Tier: TierRegion, Dial: pipeDial(global)}))
	for u, s := range streams {
		n := NewNode(testLink(NodeConfig{ID: uint32(u), Tier: TierUnit, Dial: pipeDial(region)}))
		submitAll(n, u, s)
		drain(t, n)
		closeNode(t, n)
	}
	// Region has acked everything; now wait for its own relay to clear.
	drain(t, region)
	closeNode(t, region)
	closeNode(t, global)

	want := flatBaseline(t, streams)
	if got := canonicalReport(t, region.Fleet()); !bytes.Equal(got, want) {
		t.Fatalf("region report diverges from baseline:\n%s\n-- vs --\n%s", got, want)
	}
	if got := canonicalReport(t, global.Fleet()); !bytes.Equal(got, want) {
		t.Fatalf("global report diverges from baseline:\n%s\n-- vs --\n%s", got, want)
	}
	if cov := global.Coverage(); cov.Children != 1 || cov.Links[0].Tier != "region" {
		t.Fatalf("global coverage = %+v, want one region child", cov)
	}
}

// TestLinkJournal checks that link lifecycle events land in the node's
// bounded flight journal under the tier-link stage.
func TestLinkJournal(t *testing.T) {
	parent := NewNode(testLink(NodeConfig{ID: 100, Tier: TierGlobal}))
	cfg := testLink(NodeConfig{ID: 4, Tier: TierUnit})
	cfg.Dial = CutDial(pipeDial(parent), 400)
	n := NewNode(cfg)
	submitAll(n, 4, unitStream(4, 40, -1))
	drain(t, n)
	closeNode(t, n)
	closeNode(t, parent)
	kinds := map[int32]bool{}
	for _, sp := range n.Journal().Spans() {
		if sp.Stage != obs.StageLink {
			t.Fatalf("journal span with stage %v, want %v", sp.Stage, obs.StageLink)
		}
		kinds[sp.Code] = true
	}
	for _, want := range []LinkEventKind{EventConnect, EventResume, EventDown} {
		if !kinds[int32(want)] {
			t.Fatalf("journal missing %v event; have %v", want, kinds)
		}
	}
	if n.Registry().Name() != "fleetnet" {
		t.Fatalf("registry name = %q", n.Registry().Name())
	}
}

// TestTCPLoopback runs one child over a real TCP listener — the
// deployment transport — to cover the Serve/Accept path.
func TestTCPLoopback(t *testing.T) {
	streams := map[fleet.UnitID][]byte{6: unitStream(6, 20, -1)}
	parent := NewNode(testLink(NodeConfig{ID: 100, Tier: TierGlobal}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	parent.Serve(ln)
	addr := ln.Addr().String()
	cfg := testLink(NodeConfig{ID: 6, Tier: TierUnit})
	cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	n := NewNode(cfg)
	submitAll(n, 6, streams[6])
	drain(t, n)
	closeNode(t, n)
	closeNode(t, parent)
	if got, want := canonicalReport(t, parent.Fleet()), flatBaseline(t, streams); !bytes.Equal(got, want) {
		t.Fatalf("TCP loopback report diverges:\n%s\n-- vs --\n%s", got, want)
	}
}
