package fleetnet

import (
	"testing"

	"safexplain/internal/watch"
)

func mustRules(t *testing.T, src string) []watch.Rule {
	t.Helper()
	rules, err := watch.ParseRules(src)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	return rules
}

// TestAlertRelayTree proves the alert path end to end: a unit node's
// watcher fires, the alert rides the store-and-forward uplink through
// the region to the global root, and every tier's ledger holds the
// byte-identical evidence-hashed record.
func TestAlertRelayTree(t *testing.T) {
	global := NewNode(testLink(NodeConfig{ID: 100, Tier: TierGlobal}))
	region := NewNode(testLink(NodeConfig{ID: 10, Tier: TierRegion, Dial: pipeDial(global)}))
	unit := NewNode(testLink(NodeConfig{ID: 1, Tier: TierUnit, Dial: pipeDial(region)}))

	if err := unit.ArmWatch(watch.Config{
		Rules: mustRules(t, "threshold link_frames_applied_total >= 3\n"),
	}); err != nil {
		t.Fatalf("ArmWatch: %v", err)
	}
	if _, ok := unit.WatchHealth(); !ok {
		t.Fatal("WatchHealth reports no armed watcher")
	}
	if _, ok := region.WatchHealth(); ok {
		t.Fatal("region reports an armed watcher it does not have")
	}

	submitAll(unit, 7, unitStream(7, 5, -1))
	fired, err := unit.WatchTick(1)
	if err != nil {
		t.Fatalf("WatchTick: %v", err)
	}
	if fired != 1 {
		t.Fatalf("WatchTick fired %d rules, want 1", fired)
	}
	h, _ := unit.WatchHealth()
	if h.Status != "alerting" || h.Firing != 1 || h.Origin != "unit-1" {
		t.Fatalf("unit WatchHealth = %+v", h)
	}

	// The alert shares the uplink sequence space, so draining telemetry
	// drains it too — no separate alert flush.
	drain(t, unit)
	drain(t, region)

	own := unit.Alerts()
	if len(own) != 1 || own[0].Origin != "unit-1" || own[0].State != watch.StateFiring {
		t.Fatalf("unit ledger = %+v", own)
	}
	for _, tier := range []struct {
		name string
		node *Node
	}{{"region", region}, {"global", global}} {
		got := tier.node.Alerts()
		if len(got) != 1 {
			t.Fatalf("%s ledger holds %d alerts, want 1", tier.name, len(got))
		}
		if got[0] != own[0] {
			t.Fatalf("%s alert diverged from the origin record:\n%+v\n%+v", tier.name, got[0], own[0])
		}
		if got[0].EvidenceHash == "" {
			t.Fatalf("%s alert carries no evidence hash", tier.name)
		}
	}

	closeNode(t, unit)
	closeNode(t, region)
	closeNode(t, global)
}

func TestNodeWatchBindError(t *testing.T) {
	n := NewNode(testLink(NodeConfig{ID: 1, Tier: TierUnit}))
	defer closeNode(t, n)
	err := n.ArmWatch(watch.Config{Rules: mustRules(t, "threshold ghost_metric > 1\n")})
	if err == nil {
		t.Fatal("ArmWatch bound a rule over a metric absent from the node layout")
	}
	// Unarmed node: ticking is a no-op, not an error.
	if fired, err := n.WatchTick(1); err != nil || fired != 0 {
		t.Fatalf("WatchTick on unarmed node = %d, %v", fired, err)
	}
}

func TestNodeRejectsCorruptAlert(t *testing.T) {
	n := NewNode(testLink(NodeConfig{ID: 1, Tier: TierUnit}))
	defer closeNode(t, n)
	n.applyAlert(5, []byte("not an alert"))
	tampered := []byte(`{"origin":"x","rule":"r","state":"firing","tick":1,"evidence_hash":"deadbeef"}`)
	n.applyAlert(5, tampered)
	if got := n.Alerts(); len(got) != 0 {
		t.Fatalf("corrupt alerts entered the ledger: %+v", got)
	}
	var drops uint64
	for _, c := range n.Registry().Snapshot().Counters {
		if c.Name == "watch_alerts_dropped_total" {
			drops = c.Value
		}
	}
	if drops != 2 {
		t.Fatalf("watch_alerts_dropped_total = %d, want 2", drops)
	}
}

// TestNodeSelfGauges proves every fleetnet node exposes the runtime
// self-observability gauges in the registry its watcher samples.
func TestNodeSelfGauges(t *testing.T) {
	n := NewNode(testLink(NodeConfig{ID: 1, Tier: TierUnit}))
	defer closeNode(t, n)
	if _, err := n.WatchTick(1); err != nil {
		t.Fatalf("WatchTick: %v", err)
	}
	// WatchTick on an unarmed node skips self.Update; arm a trivial
	// watcher so the self-gauges refresh.
	if err := n.ArmWatch(watch.Config{}); err != nil {
		t.Fatalf("ArmWatch: %v", err)
	}
	if _, err := n.WatchTick(2); err != nil {
		t.Fatalf("WatchTick: %v", err)
	}
	snap := n.Registry().Snapshot()
	found := map[string]bool{}
	for _, g := range snap.Gauges {
		found[g.Name] = g.Value > 0 || g.Name == "self_gc_pause_seconds" || g.Name == "self_sched_latency_seconds"
	}
	for _, name := range []string{"self_heap_bytes", "self_goroutines", "self_gc_pause_seconds", "self_sched_latency_seconds"} {
		if !found[name] {
			t.Errorf("gauge %s missing or zero on the node registry", name)
		}
	}
}
