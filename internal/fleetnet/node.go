package fleetnet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"safexplain/internal/fleet"
	"safexplain/internal/obs"
	"safexplain/internal/prof"
	"safexplain/internal/tracequery"
	"safexplain/internal/watch"
)

// NodeConfig sizes one tier node. Zero values get defaults.
type NodeConfig struct {
	ID   uint32
	Tier Tier
	// Dial connects to the parent tier; nil for the global root, which
	// has no uplink.
	Dial func() (net.Conn, error)
	// Fleet sizes the node's own subtree aggregator.
	Fleet fleet.Config

	// Link-layer sizing, shared by the child-facing server and the
	// parent-facing uplink (see ServerConfig / UplinkConfig).
	Window         int
	AckEvery       int
	Buffer         int
	BackoffBase    time.Duration
	BackoffMax     time.Duration
	BackoffSeed    uint64
	IOTimeout      time.Duration
	ScrambleWindow int
	ScrambleSeed   uint64
	// JournalCap bounds the link-event flight journal (default 256).
	JournalCap int
	// AlertCap bounds the retained watch-alert ledger — the node's own
	// transitions plus alerts relayed from its subtree (default 256).
	AlertCap int
	// WatchSource, when set, contributes one extra snapshot to the watch
	// layout — typically the unit's own runtime obs registry, so WCET
	// burn-rate rules can bind against rt_frame_cycles and its budget
	// bounds. The source must keep a stable metric layout: every metric
	// is declared before ArmWatch and none added after.
	WatchSource func() (obs.Snapshot, error)

	// Clock, when set, turns on distributed tracing at this node: every
	// frame flowing through is stamped with a hop record (ingest and
	// relay ticks from this clock), routed into the node's trace store
	// alongside the frame's v2 spans, and the stamp is relayed upward as
	// a sidecar — the traced frame bytes themselves are forwarded
	// unchanged, so evidence hashes match at every tier. Deterministic
	// runs share one obs.NewCounterClock across units and nodes; nil (the
	// default) disables all trace work.
	Clock func() uint64
	// TraceCap bounds the trace store when Clock is set (default
	// tracequery.DefaultCapacity).
	TraceCap int

	// ProfileCap bounds the node's per-site profile slot store (default
	// 512 slots). Profile records indexed beyond the bound are dropped
	// and counted, never buffered unboundedly.
	ProfileCap int
	// ProfileExceedance is the exceedance probability the node's live
	// minimum-headroom gauge is computed at (default 1e-9, matching
	// core.Config.ExceedanceP).
	ProfileExceedance float64
}

// Node is one tier of the aggregation tree. Every tier runs the same
// machinery: frames entering the node — submitted locally on a unit,
// delivered by child links on a region or the global root — are ingested
// into the node's own fleet.Aggregator (so every tier can publish a
// canonical subtree report and run common-mode detection on it) and, when
// the node has a parent, relayed upward unchanged through the
// store-and-forward uplink. Relaying the envelopes rather than a digest
// is what makes the determinism claim exact: the root converges on the
// same per-unit streams a flat aggregator would have seen.
type Node struct {
	cfg NodeConfig
	agg *fleet.Aggregator
	srv *Server
	up  *Uplink

	reg      *obs.Registry
	journal  *obs.Flight
	self     *obs.SelfStats
	cApplied *obs.Counter
	cRelayed *obs.Counter
	cRelayDr *obs.Counter
	cConn    *obs.Counter
	cResume  *obs.Counter
	cDown    *obs.Counter
	cLost    *obs.Counter
	cOverrun *obs.Counter

	cWatchSamples *obs.Counter
	cWatchAlerts  *obs.Counter
	cWatchRelayed *obs.Counter
	cWatchDrops   *obs.Counter

	cHops     *obs.Counter
	cHopDrops *obs.Counter

	cProfRecs  *obs.Counter
	cProfDrops *obs.Counter
	gHeadroom  *obs.Gauge

	traces *tracequery.Store // nil when tracing is off (no Clock)

	pmu       sync.Mutex
	profBlock int                //safexplain:guardedby pmu
	profSlots []*prof.SiteReport //safexplain:guardedby pmu

	wmu     sync.Mutex
	watcher *watch.Watcher //safexplain:guardedby wmu
	alerts  []watch.Alert  //safexplain:guardedby wmu
}

// NewNode builds and starts a tier node. The subtree aggregator runs in
// inline mode — a frame is ingested on the link goroutine before its ack
// is cut, so an acknowledged frame is already visible in the subtree
// report. The uplink, when configured, begins dialing immediately.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Tier == 0 {
		cfg.Tier = TierUnit
	}
	if cfg.JournalCap <= 0 {
		cfg.JournalCap = 256
	}
	if cfg.AlertCap <= 0 {
		cfg.AlertCap = 256
	}
	if cfg.ProfileCap <= 0 {
		cfg.ProfileCap = 512
	}
	if cfg.ProfileExceedance <= 0 || cfg.ProfileExceedance >= 1 {
		cfg.ProfileExceedance = 1e-9
	}
	reg := obs.NewRegistry("fleetnet")
	n := &Node{
		cfg:      cfg,
		agg:      fleet.New(cfg.Fleet),
		reg:      reg,
		journal:  obs.NewFlight(cfg.JournalCap),
		cApplied: reg.Counter("link_frames_applied_total", "child envelopes applied in sequence"),
		cRelayed: reg.Counter("link_frames_relayed_total", "frames forwarded to the parent tier"),
		cRelayDr: reg.Counter("link_relay_drops_total", "frames dropped by a full uplink ring"),
		cConn:    reg.Counter("link_connects_total", "first sessions established on a link"),
		cResume:  reg.Counter("link_resumes_total", "sessions resumed from the parent's applied point"),
		cDown:    reg.Counter("link_downs_total", "sessions ended"),
		cLost:    reg.Counter("link_frames_lost_total", "frames skipped by resequencing-gap declaration"),
		cOverrun: reg.Counter("link_overruns_total", "uplink ring overflows"),

		cWatchSamples: reg.Counter("watch_samples_total", "continuous-health watch cadence ticks sampled"),
		cWatchAlerts:  reg.Counter("watch_alerts_total", "alert transitions emitted by this node's watcher"),
		cWatchRelayed: reg.Counter("watch_alerts_relayed_total", "watch alerts relayed to the parent tier"),
		cWatchDrops:   reg.Counter("watch_alerts_dropped_total", "watch alerts dropped (corrupt relay, full uplink ring, or full ledger)"),

		cHops:     reg.Counter("trace_hops_total", "trace hop records stamped at or applied by this node"),
		cHopDrops: reg.Counter("trace_hop_drops_total", "trace hop records dropped (corrupt relay or full uplink ring)"),

		cProfRecs:  reg.Counter("prof_records_total", "profile site records submitted at or applied by this node"),
		cProfDrops: reg.Counter("prof_record_drops_total", "profile site records dropped (corrupt relay, site-table drift, slot bound, or full uplink ring)"),
		gHeadroom:  reg.Gauge("prof_min_headroom_ratio", "tightest live (budget-pWCET)/budget across budgeted profile sites"),
	}
	if cfg.Clock != nil {
		n.traces = tracequery.NewStore(cfg.TraceCap)
	}
	// The node watches its own health too: runtime self-gauges live in
	// the same registry the watcher samples.
	n.self = obs.NewSelfStats(reg)
	n.srv = NewServer(ServerConfig{
		Apply:     n.dispatch,
		Window:    cfg.Window,
		AckEvery:  cfg.AckEvery,
		IOTimeout: cfg.IOTimeout,
		OnEvent:   n.onEvent,
	})
	if cfg.Dial != nil {
		n.up = NewUplink(UplinkConfig{
			Node:           cfg.ID,
			Tier:           cfg.Tier,
			Dial:           cfg.Dial,
			Buffer:         cfg.Buffer,
			BackoffBase:    cfg.BackoffBase,
			BackoffMax:     cfg.BackoffMax,
			BackoffSeed:    cfg.BackoffSeed,
			IOTimeout:      cfg.IOTimeout,
			ScrambleWindow: cfg.ScrambleWindow,
			ScrambleSeed:   cfg.ScrambleSeed,
			OnEvent:        n.onEvent,
		})
	}
	return n
}

// onEvent folds one link lifecycle event into the metrics registry and
// the bounded link journal (Frame carries the peer node id, Code the
// event kind, Value the sequence the event names).
func (n *Node) onEvent(ev LinkEvent) {
	switch ev.Kind {
	case EventConnect:
		n.cConn.Inc()
	case EventResume:
		n.cResume.Inc()
	case EventDown:
		n.cDown.Inc()
	case EventLoss:
		n.cLost.Add(ev.Seq)
	case EventOverrun:
		n.cOverrun.Inc()
	}
	n.journal.Record(int(ev.Node), obs.StageLink, int32(ev.Kind), float64(ev.Seq))
}

// dispatch receives one in-sequence child envelope and hands it to its
// subtype's consumer. The payload is owned here (the server copies per
// envelope), so consumers may retain it. This is the only place on the
// tier link that looks at an envelope's subtype.
func (n *Node) dispatch(_ uint32, e Envelope) {
	switch e.Sub {
	case SubData:
		n.apply(fleet.UnitID(int32(e.ID)), e.Payload)
	case SubAlert:
		n.applyAlert(e.ID, e.Payload)
	case SubHop:
		n.applyHop(e.ID, e.Payload)
	case SubProfile:
		n.applyProfile(e.ID, e.Payload)
	}
}

// Submit feeds one locally produced telemetry frame — the unit tier's
// entry point. The frame is copied; callers may reuse the buffer.
func (n *Node) Submit(unit fleet.UnitID, frame []byte) {
	n.apply(unit, append([]byte(nil), frame...))
}

// apply takes one owned telemetry frame: ingest into the subtree
// aggregator, relay upward when a parent exists, stamp the trace hop.
func (n *Node) apply(unit fleet.UnitID, payload []byte) {
	n.cApplied.Inc()
	ingest := n.tick()
	n.agg.Ingest(unit, payload)
	n.relay(SubData, uint32(unit), payload, n.cRelayed, n.cRelayDr)
	n.stampHop(unit, payload, ingest)
}

// relay forwards one envelope to the parent tier, counting it on sent
// (when non-nil) or on dropped when the uplink ring is full. No-op on
// the global root.
func (n *Node) relay(sub Sub, id uint32, payload []byte, sent, dropped *obs.Counter) {
	if n.up == nil {
		return
	}
	if !n.up.Send(sub, id, payload) {
		dropped.Inc()
	} else if sent != nil {
		sent.Inc()
	}
}

// tick reads the injected trace clock (0 with tracing off).
func (n *Node) tick() uint64 {
	if n.cfg.Clock == nil {
		return 0
	}
	return n.cfg.Clock()
}

// stampHop records this node's hop for one frame flowing through:
// ingest tick taken before aggregation, relay tick after the frame was
// handed to the uplink (0 on the terminal tier). The frame's v2 spans
// are routed into the node's trace store, the hop is retained there
// too, and the stamp is relayed upward as a sidecar record. No-op with
// tracing off.
func (n *Node) stampHop(unit fleet.UnitID, payload []byte, ingest uint64) {
	if n.traces == nil {
		return
	}
	frame, ok := obs.PeekFrame(payload)
	if !ok {
		return
	}
	var relay uint64
	if n.up != nil {
		relay = n.tick()
	}
	h := tracequery.Hop{
		Unit: uint32(unit), Frame: frame,
		Node: n.cfg.ID, Tier: n.cfg.Tier.String(),
		Ingest: ingest, Relay: relay,
	}
	n.cHops.Inc()
	n.traces.AddHop(h)
	_ = n.traces.IngestFrame(payload) // corrupt frames already counted by fleet ingest
	if n.up != nil {
		n.relay(SubHop, n.cfg.ID, tracequery.EncodeHop(h), nil, n.cHopDrops)
	}
}

// applyHop receives one relayed hop record from a child link: retain it
// in the trace store and forward the original payload upward unchanged,
// so every ancestor tier sees the identical stamp. Hops are dropped
// (and counted) when tracing is off at this node — they are
// diagnostics, not evidence, so a dark relay tier costs attribution
// detail, never correctness.
func (n *Node) applyHop(origin uint32, payload []byte) {
	if n.traces == nil {
		n.cHopDrops.Inc()
		return
	}
	h, err := tracequery.DecodeHop(payload)
	if err != nil {
		n.cHopDrops.Inc()
		return
	}
	n.cHops.Inc()
	n.traces.AddHop(h)
	n.relay(SubHop, origin, payload, nil, n.cHopDrops)
}

// Traces exposes the node's trace store (nil with tracing off).
func (n *Node) Traces() *tracequery.Store { return n.traces }

// Serve accepts child sessions from ln (regions and the global root).
func (n *Node) Serve(ln net.Listener) { n.srv.Serve(ln) }

// ServeConn feeds one child connection directly — the net.Pipe test path.
func (n *Node) ServeConn(conn net.Conn) { n.srv.ServeConn(conn) }

// Fleet exposes the node's subtree aggregator for reporting. Callers
// must quiesce ingest (Close) before demanding a stable report.
func (n *Node) Fleet() *fleet.Aggregator { return n.agg }

// Registry exposes the node's link-metrics registry.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Name is the node's canonical "<tier>-<id>" identity — the default
// alert origin and the ledger name served on /alerts.
func (n *Node) Name() string { return fmt.Sprintf("%s-%d", n.cfg.Tier, n.cfg.ID) }

// Journal exposes the bounded link-event journal.
func (n *Node) Journal() *obs.Flight { return n.journal }

// Coverage derives the degradation summary over the node's child links.
func (n *Node) Coverage() Coverage {
	return coverageOf(n.cfg.Tier, n.cfg.ID, n.srv.Status(), time.Now())
}

// UplinkStatus freezes the parent-link accounting; ok is false on the
// global root.
func (n *Node) UplinkStatus() (UplinkStatus, bool) {
	if n.up == nil {
		return UplinkStatus{}, false
	}
	return n.up.Status(), true
}

// Drain blocks until the uplink's buffered envelopes are all
// acknowledged by the parent (no-op on the global root).
func (n *Node) Drain(ctx context.Context) error {
	if n.up == nil {
		return nil
	}
	return n.up.Drain(ctx)
}

// Close tears the node down: child links first (no more applies), then
// the uplink — drained within ctx so a graceful shutdown relays
// everything it accepted.
func (n *Node) Close(ctx context.Context) error {
	n.srv.Close()
	var err error
	if n.up != nil {
		err = n.up.Drain(ctx)
		n.up.Close()
	}
	return err
}

// watchSnaps freezes the snapshots the node watcher samples, in layout
// order: the node registry (link metrics + runtime self-gauges) first,
// the merged subtree fleet metrics second. Snapshot production is the
// allocating leg of the watch cadence; the fill/sample/eval leg that
// follows it is allocation-free.
func (n *Node) watchSnaps() ([]obs.Snapshot, error) {
	sub, err := n.agg.MetricsSnapshot()
	if err != nil {
		return nil, err
	}
	snaps := []obs.Snapshot{n.reg.Snapshot(), sub}
	if n.cfg.WatchSource != nil {
		src, err := n.cfg.WatchSource()
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, src)
	}
	return snaps, nil
}

// ArmWatch binds a continuous-health watcher over the node's own metric
// layout (node registry + merged subtree fleet metrics). Defaults:
// Origin "<tier>-<id>", Journal the node's link journal. Own alert
// transitions are retained in the node ledger and relayed to the parent
// tier through the store-and-forward uplink, interleaved with telemetry
// in the same sequence space. Arm before the first WatchTick; rules
// naming metrics outside the layout fail here, not silently at runtime.
func (n *Node) ArmWatch(cfg watch.Config) error {
	if cfg.Origin == "" {
		cfg.Origin = n.Name()
	}
	if cfg.Journal == nil {
		cfg.Journal = n.journal
	}
	userHook := cfg.OnAlert
	cfg.OnAlert = func(a watch.Alert) {
		n.onOwnAlert(a)
		if userHook != nil {
			userHook(a)
		}
	}
	n.self.Update()
	snaps, err := n.watchSnaps()
	if err != nil {
		return err
	}
	w, err := watch.New(cfg, snaps)
	if err != nil {
		return err
	}
	n.wmu.Lock()
	n.watcher = w
	n.wmu.Unlock()
	return nil
}

// WatchTick runs one watch cadence tick: refresh the self-gauges,
// freeze the snapshots, sample and evaluate. Returns the number of
// rules that newly fired. A node with no armed watcher is a no-op.
func (n *Node) WatchTick(tick int64) (int, error) {
	n.wmu.Lock()
	w := n.watcher
	n.wmu.Unlock()
	if w == nil {
		return 0, nil
	}
	n.self.Update()
	snaps, err := n.watchSnaps()
	if err != nil {
		return 0, err
	}
	fired, err := w.Observe(tick, snaps)
	if err != nil {
		return 0, err
	}
	n.cWatchSamples.Inc()
	return fired, nil
}

// onOwnAlert handles one transition from the node's own watcher: count,
// retain, relay upward. Called with the watcher lock held.
func (n *Node) onOwnAlert(a watch.Alert) {
	n.cWatchAlerts.Inc()
	n.ledgerAdd(a)
	if n.up == nil {
		return
	}
	blob, err := watch.EncodeAlert(a)
	if err != nil {
		n.cWatchDrops.Inc()
		return
	}
	n.relay(SubAlert, n.cfg.ID, blob, n.cWatchRelayed, n.cWatchDrops)
}

// applyAlert receives one relayed alert from a child link: authenticate
// the evidence hash, retain it, and forward the original payload upward
// so the bytes — and therefore the hash — are identical at every tier.
func (n *Node) applyAlert(origin uint32, payload []byte) {
	a, err := watch.DecodeAlert(payload)
	if err != nil {
		n.cWatchDrops.Inc()
		return
	}
	n.ledgerAdd(a)
	n.relay(SubAlert, origin, payload, n.cWatchRelayed, n.cWatchDrops)
}

// ledgerAdd retains one alert in the bounded node ledger.
func (n *Node) ledgerAdd(a watch.Alert) {
	n.wmu.Lock()
	if len(n.alerts) < n.cfg.AlertCap {
		n.alerts = append(n.alerts, a)
		n.wmu.Unlock()
		return
	}
	n.wmu.Unlock()
	n.cWatchDrops.Inc()
}

// Alerts returns the node's retained alert ledger — its own watcher's
// transitions plus every alert relayed from the subtree — in canonical
// (origin, tick, rule, state) order, so the serialized ledger is
// byte-identical regardless of relay interleaving.
func (n *Node) Alerts() []watch.Alert {
	n.wmu.Lock()
	out := append([]watch.Alert(nil), n.alerts...)
	n.wmu.Unlock()
	watch.SortAlerts(out)
	return out
}

// WatchHealth freezes the armed watcher's summary; ok is false when no
// watcher is armed.
func (n *Node) WatchHealth() (watch.Health, bool) {
	n.wmu.Lock()
	w := n.watcher
	n.wmu.Unlock()
	if w == nil {
		return watch.Health{}, false
	}
	return w.Health(), true
}
