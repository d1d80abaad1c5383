package fleetnet

import (
	"context"
	"net"
	"sync"
	"time"

	"safexplain/internal/prng"
)

// UplinkConfig sizes a tier uplink. Zero values get defaults.
type UplinkConfig struct {
	// Node is this child's id on the parent link; Tier is carried in the
	// hello so the parent can sanity-label its children.
	Node uint32
	Tier Tier
	// Dial opens one connection attempt to the parent. Required.
	Dial func() (net.Conn, error)
	// Buffer is the store-and-forward ring capacity in envelopes
	// (default 4096). Envelopes stay buffered until the parent's
	// cumulative ack covers them; a full ring drops the newest send and
	// counts it — bounded memory when the parent is congested or gone.
	Buffer int
	// BackoffBase/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 20ms and 2s). BackoffSeed seeds the jitter
	// stream (default 1) — deterministic schedules for tests.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	BackoffSeed uint64
	// IOTimeout is the per-operation read/write deadline (default 2s).
	// A link silent for 4×IOTimeout is declared dead and redialed.
	IOTimeout time.Duration
	// ScrambleWindow > 1 permutes the send order inside a seeded window
	// of that many envelopes — link-fault injection emulating a
	// reordering transport, exercised by the T17 campaign against the
	// parent's resequencing buffer. 0 or 1 sends strictly in order.
	ScrambleWindow int
	ScrambleSeed   uint64
	// OnEvent, when set, observes link lifecycle events (connect,
	// resume, down, overrun). Called from link goroutines; must not
	// block.
	OnEvent func(LinkEvent)
}

func (c UplinkConfig) withDefaults() UplinkConfig {
	if c.Buffer <= 0 {
		c.Buffer = 4096
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 20 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BackoffSeed == 0 {
		c.BackoffSeed = 1
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 2 * time.Second
	}
	return c
}

// Uplink is the child end of a tier link: a bounded store-and-forward
// ring of sequenced envelopes, a dial/handshake/stream loop with
// jittered exponential backoff, and cumulative-ack bookkeeping. Send
// never blocks on the network — a full ring drops and counts.
type Uplink struct {
	cfg UplinkConfig

	mu   sync.Mutex
	cond *sync.Cond
	ring []Envelope
	head int    // ring index of headSeq
	n    int    // envelopes held
	hseq uint64 // seq of ring[head]; ring holds [hseq, hseq+n)
	next uint64 // next seq to assign (1-based)

	acked     uint64 // parent's cumulative applied sequence
	drops     uint64 // sends rejected by a full ring
	dialFails uint64
	sessions  uint64 // handshakes completed
	resumes   uint64 // handshakes after the first (resume replays)
	connected bool
	broken    bool // current session declared dead
	conn      net.Conn
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewUplink builds the uplink and starts its connect/stream loop.
func NewUplink(cfg UplinkConfig) *Uplink {
	cfg = cfg.withDefaults()
	u := &Uplink{
		cfg:  cfg,
		ring: make([]Envelope, cfg.Buffer),
		hseq: 1,
		next: 1,
		done: make(chan struct{}),
	}
	u.cond = sync.NewCond(&u.mu)
	u.wg.Add(1)
	go u.run()
	return u
}

// Send buffers one envelope for uplink, copying the payload; sub and id
// travel with it unread. Every subtype shares the ring and the sequence
// space, so the resume handshake replays them in their original
// interleaving. Send reports false — and counts a drop — when the ring
// is full, i.e. this child has outrun a congested or unreachable parent
// beyond its store-and-forward capacity. Never blocks on the network.
func (u *Uplink) Send(sub Sub, id uint32, payload []byte) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return false
	}
	u.evictAckedLocked()
	if u.n >= len(u.ring) {
		u.drops++
		if u.cfg.OnEvent != nil {
			u.cfg.OnEvent(LinkEvent{Kind: EventOverrun, Node: u.cfg.Node, Seq: u.next})
		}
		return false
	}
	u.ring[(u.head+u.n)%len(u.ring)] = Envelope{Seq: u.next, Sub: sub, ID: id, Payload: append([]byte(nil), payload...)}
	u.n++
	u.next++
	u.cond.Broadcast()
	return true
}

// evictAckedLocked frees ring slots whose envelopes the parent has
// applied. Called with mu held.
func (u *Uplink) evictAckedLocked() {
	for u.n > 0 && u.hseq <= u.acked {
		u.ring[u.head].Payload = nil
		u.head = (u.head + 1) % len(u.ring)
		u.n--
		u.hseq++
	}
}

// Drain blocks until every buffered envelope has been acknowledged by
// the parent (or ctx expires). A drained uplink may be closed without
// losing frames.
func (u *Uplink) Drain(ctx context.Context) error {
	for {
		u.mu.Lock()
		done := u.acked >= u.next-1
		closed := u.closed
		u.mu.Unlock()
		if done {
			return nil
		}
		if closed {
			return context.Canceled
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close stops the uplink. Unacknowledged envelopes are abandoned — call
// Drain first for a lossless shutdown.
func (u *Uplink) Close() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.closed = true
	close(u.done)
	if u.conn != nil {
		u.conn.Close()
	}
	u.cond.Broadcast()
	u.mu.Unlock()
	u.wg.Wait()
}

// Status freezes the uplink's accounting.
func (u *Uplink) Status() UplinkStatus {
	u.mu.Lock()
	defer u.mu.Unlock()
	return UplinkStatus{
		Node:      u.cfg.Node,
		Connected: u.connected,
		Sent:      u.next - 1,
		Acked:     u.acked,
		Buffered:  u.n,
		Drops:     u.drops,
		Sessions:  u.sessions,
		Resumes:   u.resumes,
		DialFails: u.dialFails,
	}
}

// backoffDelay is the jittered exponential schedule: base·2^attempt
// capped at max, then scaled into [d/2, d] by the seeded jitter stream —
// reconnect storms decorrelate without losing the deterministic replay
// property tests rely on.
func backoffDelay(attempt int, base, max time.Duration, jitter *prng.Source) time.Duration {
	d := base
	//safexplain:bounded attempt growth stops at the cap
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + 0.5*jitter.Float64()))
}

// sleep waits d, returning false if the uplink closed meanwhile.
func (u *Uplink) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-u.done:
		return false
	}
}

func (u *Uplink) isClosed() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.closed
}

// run is the uplink's life: dial with backoff, handshake, stream until
// the link breaks, repeat.
func (u *Uplink) run() {
	defer u.wg.Done()
	jitter := prng.New(u.cfg.BackoffSeed)
	attempt := 0
	for !u.isClosed() {
		conn, err := u.cfg.Dial()
		if err != nil {
			u.mu.Lock()
			u.dialFails++
			u.mu.Unlock()
			if !u.sleep(backoffDelay(attempt, u.cfg.BackoffBase, u.cfg.BackoffMax, jitter)) {
				return
			}
			attempt++
			continue
		}
		ok := u.session(conn)
		conn.Close()
		if u.isClosed() {
			return
		}
		if ok {
			attempt = 0 // the handshake succeeded; restart the schedule
		} else {
			if !u.sleep(backoffDelay(attempt, u.cfg.BackoffBase, u.cfg.BackoffMax, jitter)) {
				return
			}
			attempt++
		}
	}
}

// session runs one connection: hello/welcome handshake, then stream
// envelopes from the resume point while a reader folds in cumulative
// acks. Returns whether the handshake completed (for backoff reset).
func (u *Uplink) session(conn net.Conn) bool {
	mc := newMsgConn(conn, u.cfg.IOTimeout)
	if err := mc.write(Msg{Kind: KindHello, Node: u.cfg.Node, Tier: u.cfg.Tier}); err != nil {
		return false
	}
	m, err := mc.read(u.cfg.IOTimeout)
	if err != nil || m.Kind != KindWelcome {
		return false
	}

	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return true
	}
	u.sessions++
	resumed := u.sessions > 1
	if resumed {
		u.resumes++
	}
	if m.Ack > u.acked {
		u.acked = m.Ack
	}
	cursor := u.acked + 1
	u.connected = true
	u.broken = false
	u.conn = conn
	u.mu.Unlock()
	if u.cfg.OnEvent != nil {
		kind := EventConnect
		if resumed {
			kind = EventResume
		}
		u.cfg.OnEvent(LinkEvent{Kind: kind, Node: u.cfg.Node, Seq: m.Ack})
	}

	// The reader owns the inbound half: acks advance the ring, and a
	// link silent for 4×IOTimeout (the parent keepalives at IOTimeout)
	// is declared dead.
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			m, err := mc.read(4 * u.cfg.IOTimeout)
			if err != nil {
				u.breakSession(conn)
				return
			}
			if m.Kind == KindAck || m.Kind == KindWelcome {
				u.mu.Lock()
				if m.Ack > u.acked {
					u.acked = m.Ack
					u.cond.Broadcast()
				}
				u.mu.Unlock()
			}
		}
	}()

	scramble := prng.New(u.cfg.ScrambleSeed + 1)
	var batch []Envelope
	for {
		batch = u.nextBatch(cursor, batch[:0])
		if batch == nil {
			break
		}
		if w := u.cfg.ScrambleWindow; w > 1 {
			scramble.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		}
		ok := true
		for _, e := range batch {
			if err := mc.write(Msg{Kind: KindEnv, Env: e}); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			u.breakSession(conn)
			break
		}
		cursor += uint64(len(batch))
	}
	conn.Close()
	readerWG.Wait()

	u.mu.Lock()
	u.connected = false
	u.conn = nil
	u.mu.Unlock()
	if u.cfg.OnEvent != nil && !u.isClosed() {
		u.cfg.OnEvent(LinkEvent{Kind: EventDown, Node: u.cfg.Node, Seq: u.acked})
	}
	return true
}

// breakSession marks the current session dead and unblocks the writer.
func (u *Uplink) breakSession(conn net.Conn) {
	u.mu.Lock()
	u.broken = true
	u.cond.Broadcast()
	u.mu.Unlock()
	conn.Close()
}

// nextBatch waits until envelopes at or after cursor are buffered and
// returns up to ScrambleWindow of them (all available when not
// scrambling), appended to dst. Returns nil when the session is over
// (closed or broken).
func (u *Uplink) nextBatch(cursor uint64, dst []Envelope) []Envelope {
	u.mu.Lock()
	defer u.mu.Unlock()
	for {
		if u.closed || u.broken {
			return nil
		}
		if cursor < u.next {
			limit := u.next - cursor
			if w := uint64(u.cfg.ScrambleWindow); w > 1 && limit > w {
				limit = w
			}
			for i := uint64(0); i < limit; i++ {
				seq := cursor + i
				if seq < u.hseq { // already applied by the parent; skip
					continue
				}
				dst = append(dst, u.ring[(u.head+int(seq-u.hseq))%len(u.ring)])
			}
			if len(dst) == 0 { // everything in range was acked away
				cursor = u.hseq
				continue
			}
			return dst
		}
		u.cond.Wait()
	}
}
