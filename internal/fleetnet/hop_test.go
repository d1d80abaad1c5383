package fleetnet

import (
	"context"
	"net"
	"testing"
	"time"

	"safexplain/internal/fleet"
	"safexplain/internal/obs"
	"safexplain/internal/tracequery"
)

// pipeDialer connects an uplink to parent over an in-process pipe — the
// same topology `safexplain trace` simulates on.
func pipeDialer(parent *Node) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		parent.ServeConn(s)
		return c, nil
	}
}

// tracedFrame emits one traced frame (v2 spans) for unit through a
// downlink and returns its whole-frame chunks.
func tracedFrame(t *testing.T, unit uint32, frame int, clock func() uint64) [][]byte {
	t.Helper()
	o := obs.New(obs.Config{Name: "hop-test", Unit: unit, Clock: clock})
	link := obs.NewDownlink(obs.DownlinkConfig{BytesPerFrame: 384})
	o.AttachDownlink(link)
	o.TraceBegin(frame)
	o.TraceChild(obs.StageDeadline, 0, 1.0, o.TraceRoot())
	o.TraceEnd(frame)
	chunks := fleet.SplitFrames(link.Capture())
	if len(chunks) == 0 {
		t.Fatal("traced frame produced no downlink chunks")
	}
	return chunks
}

// TestHopRelayAcrossTiers drives one traced frame up a unit → region →
// global pipe tree sharing a counter clock and checks the global store
// reassembles the full trace: the unit's spans, one hop per stamping
// tier in path order, and an attribution whose slices account for the
// clock ticks between the stamps.
func TestHopRelayAcrossTiers(t *testing.T) {
	clock := obs.NewCounterClock()
	global := NewNode(NodeConfig{ID: 200, Tier: TierGlobal, Clock: clock,
		Fleet: fleet.Config{Shards: 1}})
	region := NewNode(NodeConfig{ID: 100, Tier: TierRegion, Clock: clock,
		Dial: pipeDialer(global), Fleet: fleet.Config{Shards: 1}})
	unit := NewNode(NodeConfig{ID: 7, Tier: TierUnit, Clock: clock,
		Dial: pipeDialer(region), Fleet: fleet.Config{Shards: 1}})

	const frame = 3
	for _, c := range tracedFrame(t, 7, frame, clock) {
		unit.Submit(7, c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range []*Node{unit, region} {
		if err := n.Drain(ctx); err != nil {
			st, _ := n.UplinkStatus()
			t.Fatalf("%s drain: %v (status %+v)", n.Name(), err, st)
		}
		n.Close(ctx)
	}
	defer global.Close(ctx)

	id := obs.TraceID(7, frame)
	b, ok := global.Traces().Bundle(id)
	if !ok {
		t.Fatalf("global store does not hold trace %s (len=%d)", obs.FormatTraceID(id), global.Traces().Len())
	}
	if len(b.Spans) == 0 {
		t.Fatal("bundle reassembled without spans")
	}
	if b.RootDur() == 0 {
		t.Fatal("root span has no duration — v2 stamping did not happen")
	}
	// Every tier on the path stamps exactly one hop: the unit node, the
	// region, and the global root.
	if len(b.Hops) != 3 {
		t.Fatalf("hops = %d, want 3 (unit, region, global): %+v", len(b.Hops), b.Hops)
	}
	wantTiers := []string{"unit", "region", "global"}
	for i, h := range b.Hops {
		if h.Tier != wantTiers[i] {
			t.Fatalf("hop %d stamped by tier %q, want %q", i, h.Tier, wantTiers[i])
		}
		if h.Unit != 7 || h.Frame != frame {
			t.Fatalf("hop %d identity = unit %d frame %d, want 7/%d", i, h.Unit, h.Frame, frame)
		}
		if h.Ingest == 0 {
			t.Fatalf("hop %d has no ingest tick", i)
		}
	}
	// The terminal node holds the bytes; it has no relay tick.
	if b.Hops[2].Relay != 0 {
		t.Fatalf("global hop relay tick = %d, want 0 (terminal)", b.Hops[2].Relay)
	}
	if len(b.Attribution) == 0 {
		t.Fatal("bundle has no attribution")
	}
	if b.Attribution[0].Kind != "unit" || b.Attribution[0].Ticks != b.RootDur() {
		t.Fatalf("attribution[0] = %+v, want unit slice of %d ticks", b.Attribution[0], b.RootDur())
	}

	// Each tier also reassembles its own view of the trace.
	for _, n := range []*Node{unit, region} {
		if _, ok := n.Traces().Bundle(id); !ok {
			t.Fatalf("%s store does not hold trace %s", n.Name(), obs.FormatTraceID(id))
		}
	}
}

// TestHopRelayUntracedParent checks a clockless parent stays on the v1
// behavior: hop envelopes are counted as drops, frames still aggregate,
// and Traces() is nil.
func TestHopRelayUntracedParent(t *testing.T) {
	clock := obs.NewCounterClock()
	parent := NewNode(NodeConfig{ID: 50, Tier: TierGlobal,
		Fleet: fleet.Config{Shards: 1}})
	child := NewNode(NodeConfig{ID: 8, Tier: TierUnit, Clock: clock,
		Dial: pipeDialer(parent), Fleet: fleet.Config{Shards: 1}})

	for _, c := range tracedFrame(t, 8, 0, clock) {
		child.Submit(8, c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := child.Drain(ctx); err != nil {
		t.Fatalf("drain through untraced parent: %v", err)
	}
	child.Close(ctx)
	defer parent.Close(ctx)

	if parent.Traces() != nil {
		t.Fatal("clockless node grew a trace store")
	}
	rep, err := parent.Fleet().Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reports) != 1 || rep.Reports[0].Frames == 0 {
		t.Fatalf("untraced parent did not aggregate the traced frames: %+v", rep.Reports)
	}
}

// TestHopEnvelopeRoundTrip pins the hop tier-link framing: a SubHop
// envelope survives msgConn write → read byte-exactly — the regression
// that once broke every traced session on its first hop.
func TestHopEnvelopeRoundTrip(t *testing.T) {
	hop := tracequery.EncodeHop(tracequery.Hop{
		Unit: 9, Frame: 4, Node: 100, Tier: "region", Ingest: 11, Relay: 12,
	})
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	go func() {
		mc := newMsgConn(c, time.Second)
		mc.write(envMsg(5, SubHop, 100, hop))
	}()
	mc := newMsgConn(s, time.Second)
	m, err := mc.read(2 * time.Second)
	if err != nil {
		t.Fatalf("reading hop envelope: %v", err)
	}
	if m.Kind != KindEnv || m.Env.Sub != SubHop || m.Env.Seq != 5 || m.Env.ID != 100 {
		t.Fatalf("decoded envelope = %+v", m)
	}
	got, err := tracequery.DecodeHop(m.Env.Payload)
	if err != nil {
		t.Fatalf("decoding hop payload: %v", err)
	}
	if got.Unit != 9 || got.Frame != 4 || got.Node != 100 || got.Tier != "region" || got.Ingest != 11 || got.Relay != 12 {
		t.Fatalf("hop round trip = %+v", got)
	}
}
