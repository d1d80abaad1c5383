package fleetnet

import (
	"net"
	"sort"
	"sync"
	"time"
)

// ServerConfig sizes the parent end of tier links. Zero values get
// defaults.
type ServerConfig struct {
	// Apply receives each child envelope exactly once, in sequence
	// order per child; node is the directly-connected child. The payload
	// is owned by the callee. Required.
	Apply func(node uint32, e Envelope)
	// Window bounds the per-child resequencing buffer (default 256
	// envelopes). A sequence gap still open when the buffer fills is
	// declared lost and skipped — the subtree never stalls on one
	// missing frame.
	Window int
	// AckEvery is the cumulative-ack cadence in applied envelopes
	// (default 32). Acks are also flushed whenever the inbound pipe
	// idles, so a quiet link still converges.
	AckEvery int
	// IOTimeout is the per-operation deadline (default 2s); it doubles
	// as the keepalive cadence on idle links.
	IOTimeout time.Duration
	// OnEvent, when set, observes link lifecycle events. Called from
	// link goroutines; must not block.
	OnEvent func(LinkEvent)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 32
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 2 * time.Second
	}
	return c
}

// child is the parent's per-link state: the cumulative applied sequence
// the resume handshake reports, the resequencing buffer, and loss/dup
// accounting. It outlives any one connection.
type child struct {
	mu        sync.Mutex
	node      uint32
	tier      Tier
	gen       uint64 // connection generation; a reconnect takes over
	conn      net.Conn
	applied   uint64 // cumulative: every seq <= applied has been applied
	unacked   int    // applied since the last ack was sent
	pending   map[uint64]Envelope
	lost      uint64 // frames skipped by gap declaration
	dups      uint64 // frames at or below applied (replays, reorders)
	sessions  uint64
	lastFrame time.Time
}

// Server is the parent end of tier links: it accepts child sessions,
// replays its cumulative applied sequence in the welcome so children
// resume without loss or duplication, resequences out-of-order
// envelopes in a bounded window, and hands each envelope to Apply
// exactly once, in order.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	children map[uint32]*child
	conns    map[net.Conn]struct{}
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup
}

// NewServer builds a tier-link server. Attach a listener with Serve or
// feed connections directly with ServeConn.
func NewServer(cfg ServerConfig) *Server {
	return &Server{
		cfg:      cfg.withDefaults(),
		children: make(map[uint32]*child),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Serve accepts sessions from ln until the server closes. It runs in the
// background and returns immediately.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		ln.Close()
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.ServeConn(conn)
		}
	}()
}

// ServeConn runs one child session on conn in the background — the
// net.Pipe entry point the link tests drive directly.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.handle(conn)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
}

// Close stops accepting, tears down every live link, and waits for the
// session goroutines to drain. Per-child resume state is retained, but a
// closed server does not accept new sessions.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// lookup returns the persistent per-child state for node, creating it on
// first contact.
func (s *Server) lookup(node uint32, tier Tier) *child {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.children[node]
	if c == nil {
		c = &child{node: node, tier: tier, pending: make(map[uint64]Envelope)}
		s.children[node] = c
	}
	c.tier = tier
	return c
}

// handle runs one child session: hello, welcome with the resume point,
// then the data/ack loop until the link dies or a reconnect takes over.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	mc := newMsgConn(conn, s.cfg.IOTimeout)
	hello, err := mc.read(s.cfg.IOTimeout)
	if err != nil || hello.Kind != KindHello {
		return
	}
	c := s.lookup(hello.Node, hello.Tier)

	c.mu.Lock()
	// A reconnect takes over: the stale session's read fails when its
	// conn closes, and the generation check keeps it from clobbering
	// the live one on the way out.
	if c.conn != nil {
		c.conn.Close()
	}
	c.gen++
	gen := c.gen
	c.conn = conn
	c.sessions++
	resumed := c.sessions > 1
	applied := c.applied
	c.unacked = 0
	c.mu.Unlock()

	if err := mc.write(Msg{Kind: KindWelcome, Ack: applied}); err != nil {
		s.detach(c, gen)
		return
	}
	if s.cfg.OnEvent != nil {
		kind := EventConnect
		if resumed {
			kind = EventResume
		}
		s.cfg.OnEvent(LinkEvent{Kind: kind, Node: c.node, Seq: applied})
	}

	for {
		m, err := mc.read(s.cfg.IOTimeout)
		if err != nil {
			if !isTimeout(err) {
				break
			}
			// Idle link: the keepalive ack proves liveness to the child
			// and flushes any ack debt.
			if !s.ackNow(c, gen, mc) {
				break
			}
			continue
		}
		if m.Kind != KindEnv {
			continue
		}
		s.ingest(c, m.Env)
		// Ack on cadence, or immediately once the inbound pipe drains —
		// bulk replays ack in batches, trickles ack per frame.
		c.mu.Lock()
		due := c.unacked >= s.cfg.AckEvery || (c.unacked > 0 && !mc.buffered())
		c.mu.Unlock()
		if due && !s.ackNow(c, gen, mc) {
			break
		}
	}
	s.detach(c, gen)
	if s.cfg.OnEvent != nil && gen == c.generation() {
		s.cfg.OnEvent(LinkEvent{Kind: EventDown, Node: c.node, Seq: c.appliedSeq()})
	}
}

// ingest applies one envelope: duplicates below the cumulative point
// are dropped, in-order envelopes apply immediately and drain the
// resequencing buffer behind them, and out-of-order envelopes wait in
// the bounded window — overflowing it declares the gap lost and moves
// on. e.Payload aliases the read buffer; whatever is kept is a copy.
func (s *Server) ingest(c *child, e Envelope) {
	c.mu.Lock()
	c.lastFrame = time.Now()
	switch {
	case e.Seq <= c.applied:
		c.dups++
		c.mu.Unlock()
		return
	case e.Seq == c.applied+1:
		e.Payload = append([]byte(nil), e.Payload...)
		c.applied++
		c.unacked++
		c.mu.Unlock()
		s.cfg.Apply(c.node, e)
		s.drainPending(c)
		return
	default:
		if _, ok := c.pending[e.Seq]; !ok {
			e.Payload = append([]byte(nil), e.Payload...)
			c.pending[e.Seq] = e
		}
		if len(c.pending) <= s.cfg.Window {
			c.mu.Unlock()
			return
		}
		// The window is full and the gap at applied+1 never arrived:
		// declare everything up to the oldest pending frame lost so the
		// subtree keeps flowing.
		oldest := e.Seq
		for seq := range c.pending {
			if seq < oldest {
				oldest = seq
			}
		}
		lost := oldest - c.applied - 1
		c.lost += lost
		c.applied = oldest - 1
		node := c.node
		c.mu.Unlock()
		if s.cfg.OnEvent != nil {
			s.cfg.OnEvent(LinkEvent{Kind: EventLoss, Node: node, Seq: lost})
		}
		s.drainPending(c)
		return
	}
}

// drainPending applies every buffered envelope now contiguous with the
// cumulative point.
func (s *Server) drainPending(c *child) {
	for {
		c.mu.Lock()
		e, ok := c.pending[c.applied+1]
		if !ok {
			c.mu.Unlock()
			return
		}
		delete(c.pending, c.applied+1)
		c.applied++
		c.unacked++
		c.mu.Unlock()
		s.cfg.Apply(c.node, e)
	}
}

// ackNow sends the cumulative ack if this session still owns the link.
func (s *Server) ackNow(c *child, gen uint64, mc *msgConn) bool {
	c.mu.Lock()
	if c.gen != gen {
		c.mu.Unlock()
		return false
	}
	applied := c.applied
	c.unacked = 0
	c.mu.Unlock()
	return mc.write(Msg{Kind: KindAck, Ack: applied}) == nil
}

// detach clears the live-connection marker if this session still owns
// the link.
func (s *Server) detach(c *child, gen uint64) {
	c.mu.Lock()
	if c.gen == gen {
		c.conn = nil
	}
	c.mu.Unlock()
}

func (c *child) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

func (c *child) appliedSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// Status freezes per-child link accounting, sorted by node id.
func (s *Server) Status() []ChildStatus {
	s.mu.Lock()
	kids := make([]*child, 0, len(s.children))
	for _, c := range s.children {
		kids = append(kids, c)
	}
	s.mu.Unlock()
	out := make([]ChildStatus, 0, len(kids))
	for _, c := range kids {
		c.mu.Lock()
		out = append(out, ChildStatus{
			Node:      c.node,
			Tier:      c.tier.String(),
			Connected: c.conn != nil,
			Applied:   c.applied,
			Pending:   len(c.pending),
			Lost:      c.lost,
			Dups:      c.dups,
			Sessions:  c.sessions,
			LastFrame: c.lastFrame,
		})
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
