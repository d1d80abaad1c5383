package fleetnet

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"safexplain/internal/fleet"
	"safexplain/internal/prof"
)

// unitProfile builds a frozen two-site profile with seeded observations —
// deterministic, so relay tests can assert byte-identity downstream.
func unitProfile(t *testing.T, name string, base uint64) prof.Report {
	t.Helper()
	p := prof.New(prof.Config{Name: name})
	stage := p.AddSite("stage/step", prof.KindStage, 10_000)
	kern := p.AddSite("kernel/conv0", prof.KindKernel, 0)
	p.Freeze()
	for i := uint64(0); i < 200; i++ {
		p.Observe(stage, base+i%17)
		p.Observe(kern, base/2+i%11)
	}
	return p.Report()
}

// TestProfileRelayAcrossTiers drives one unit's profile up a unit →
// region → global pipe tree and checks every tier ingests the same
// per-site records: counts and sums match at each level, and the relay
// forwarded the original record bytes unchanged.
func TestProfileRelayAcrossTiers(t *testing.T) {
	global := NewNode(NodeConfig{ID: 200, Tier: TierGlobal, Fleet: fleet.Config{Shards: 1}})
	region := NewNode(NodeConfig{ID: 100, Tier: TierRegion,
		Dial: pipeDialer(global), Fleet: fleet.Config{Shards: 1}})
	unit := NewNode(NodeConfig{ID: 7, Tier: TierUnit,
		Dial: pipeDialer(region), Fleet: fleet.Config{Shards: 1}})

	src := unitProfile(t, "u7", 400)
	if got := unit.SubmitProfile(src); got != len(src.Sites) {
		t.Fatalf("SubmitProfile accepted %d of %d records", got, len(src.Sites))
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

	for _, n := range []*Node{unit, region, global} {
		rep, ok := n.ProfileReport()
		if !ok {
			t.Fatalf("%s holds no profile", n.Name())
		}
		if len(rep.Sites) != len(src.Sites) {
			t.Fatalf("%s holds %d sites, want %d", n.Name(), len(rep.Sites), len(src.Sites))
		}
		for i, s := range rep.Sites {
			want := src.Sites[i]
			if s.Name != want.Name || s.Count != want.Count || s.Sum != want.Sum || s.Max != want.Max {
				t.Errorf("%s site %d = %s count=%d sum=%d max=%d, want %s count=%d sum=%d max=%d",
					n.Name(), i, s.Name, s.Count, s.Sum, s.Max, want.Name, want.Count, want.Sum, want.Max)
			}
		}
	}
}

// TestProfileMergeOrderIndependent submits two units' profiles to fresh
// unit → global trees in both orders, draining between submissions so the
// arrival interleavings genuinely differ, and requires the global merged
// report to encode byte-identically either way.
func TestProfileMergeOrderIndependent(t *testing.T) {
	reports := []prof.Report{unitProfile(t, "u1", 300), unitProfile(t, "u2", 900)}
	merged := func(order []int) []byte {
		global := NewNode(NodeConfig{ID: 200, Tier: TierGlobal, Fleet: fleet.Config{Shards: 1}})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		defer global.Close(ctx)
		for _, i := range order {
			unit := NewNode(NodeConfig{ID: uint32(i + 1), Tier: TierUnit,
				Dial: pipeDialer(global), Fleet: fleet.Config{Shards: 1}})
			unit.SubmitProfile(reports[i])
			if err := unit.Drain(ctx); err != nil {
				t.Fatalf("unit %d drain: %v", i, err)
			}
			unit.Close(ctx)
		}
		rep, ok := global.ProfileReport()
		if !ok {
			t.Fatal("global holds no profile")
		}
		blob, err := rep.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return blob
	}
	ab := merged([]int{0, 1})
	ba := merged([]int{1, 0})
	if !bytes.Equal(ab, ba) {
		t.Fatalf("global profile depends on arrival order:\n a→b %d bytes\n b→a %d bytes", len(ab), len(ba))
	}
}

// TestProfileIngestDriftRejected checks the slot store's guards: the
// first record fixes the block size and later records disagreeing with it
// are dropped, as are records indexed beyond ProfileCap — without
// disturbing what was already ingested.
func TestProfileIngestDriftRejected(t *testing.T) {
	n := NewNode(NodeConfig{ID: 1, Tier: TierGlobal, ProfileCap: 4, Fleet: fleet.Config{Shards: 1}})
	src := unitProfile(t, "u1", 500)
	if got := n.SubmitProfile(src); got != len(src.Sites) {
		t.Fatalf("baseline SubmitProfile accepted %d of %d", got, len(src.Sites))
	}

	drifted := unitProfile(t, "u1", 500)
	drifted.BlockSize = src.BlockSize * 2
	if got := n.SubmitProfile(drifted); got != 0 {
		t.Fatalf("block-size drift accepted %d records, want 0", got)
	}
	if !n.ingestProfile(0, src.BlockSize, src.Sites[0]) {
		t.Fatal("matching record rejected after drift attempt")
	}
	if n.ingestProfile(4, src.BlockSize, src.Sites[0]) {
		t.Fatal("record at index ProfileCap accepted, want drop")
	}

	rep, ok := n.ProfileReport()
	if !ok || len(rep.Sites) != len(src.Sites) {
		t.Fatalf("store disturbed by rejected records: ok=%v sites=%d", ok, len(rep.Sites))
	}
}

// TestSubmitProfileLeavesReportUnchanged submits one report twice to a
// node: the second merge must land in the node's own slot store, not
// write through to the caller's report.
func TestSubmitProfileLeavesReportUnchanged(t *testing.T) {
	n := NewNode(NodeConfig{ID: 1, Tier: TierGlobal, Fleet: fleet.Config{Shards: 1}})
	src := unitProfile(t, "u1", 500)
	before, err := src.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	n.SubmitProfile(src)
	n.SubmitProfile(src)
	after, err := src.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("SubmitProfile changed the submitted report")
	}
	rep, _ := n.ProfileReport()
	if got, want := rep.Sites[0].Count, 2*src.Sites[0].Count; got != want {
		t.Fatalf("merged count = %d, want %d", got, want)
	}
}

// TestProfileConnFraming round-trips a SubProfile envelope through
// msgConn over a pipe — a regression test for the framing reader, which
// must assemble the message from its header alone (a miss here kills the
// session on the first profile record and the child replays it forever).
func TestProfileConnFraming(t *testing.T) {
	src := unitProfile(t, "u1", 700)
	blob, err := prof.AppendSiteRecord(nil, src.BlockSize, 1, src.Sites[1])
	if err != nil {
		t.Fatalf("AppendSiteRecord: %v", err)
	}
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	go func() {
		mc := newMsgConn(cc, time.Second)
		mc.write(envMsg(9, SubProfile, 7, blob))
	}()
	m, err := newMsgConn(sc, time.Second).read(time.Second)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if m.Kind != KindEnv || m.Env.Sub != SubProfile || m.Env.Seq != 9 || m.Env.ID != 7 {
		t.Fatalf("read %+v, want profile envelope seq=9 id=7", m)
	}
	idx, blockSize, site, err := prof.DecodeSiteRecord(m.Env.Payload)
	if err != nil {
		t.Fatalf("DecodeSiteRecord: %v", err)
	}
	if idx != 1 || blockSize != src.BlockSize || site.Name != src.Sites[1].Name || site.Count != src.Sites[1].Count {
		t.Fatalf("record drifted through the link: idx=%d block=%d name=%s count=%d", idx, blockSize, site.Name, site.Count)
	}
}
