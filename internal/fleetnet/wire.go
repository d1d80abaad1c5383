// Package fleetnet scales the single-process fleet ground segment
// (internal/fleet) into a multi-process aggregation tree: unit → region
// → global. Each tier link carries the unit downlink wire format
// (internal/obs) wrapped in sequenced envelopes over an ordinary byte
// stream (TCP in deployment, net.Pipe in tests); every tier ingests what
// flows through it into its own fleet.Aggregator — so each tier can
// publish a canonical subtree report — and relays the envelopes upward
// unchanged, so the global tier converges on exactly the per-unit
// streams a flat aggregator would have seen.
//
// The robustness core is the link layer:
//
//	store-and-forward  the child retains every sent envelope in a bounded
//	                   ring until the parent's cumulative ack covers it;
//	                   a dropped connection replays from the parent's
//	                   last applied sequence after the resume handshake,
//	                   so no frame is lost and none is applied twice.
//	backoff            reconnects use jittered exponential backoff with a
//	                   cap, driven by the deterministic internal/prng.
//	bounded queues     a child that outruns a congested or partitioned
//	                   parent overflows its ring: the newest envelope is
//	                   dropped and counted, never buffered unboundedly.
//	resequencing       the parent holds out-of-order envelopes in a
//	                   bounded window and applies them in sequence;
//	                   a gap that outlives the window is declared lost
//	                   and counted rather than stalling the subtree.
//	degradation        a tier that loses k of n children keeps publishing
//	                   its report, flagged with per-link coverage and
//	                   staleness — it never stalls on a dead link.
//
// Because each child's envelopes are applied in sequence order and the
// fleet merge is order-independent across units, the global canonical
// report converges byte-identically to the fault-free run once all links
// recover — experiment T17 sweeps link loss, partition and reorder to
// prove exactly that.
package fleetnet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Tier identifies a node's level in the aggregation tree.
type Tier uint8

// Tree tiers, leaf to root.
const (
	TierUnit   Tier = 1 // one operating unit uplinking its downlink frames
	TierRegion Tier = 2 // aggregates units, relays upward
	TierGlobal Tier = 3 // the root: aggregates everything, publishes the fleet report
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierUnit:
		return "unit"
	case TierRegion:
		return "region"
	case TierGlobal:
		return "global"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// ParseTier maps a CLI tier name to its Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "unit":
		return TierUnit, nil
	case "region":
		return TierRegion, nil
	case "global":
		return TierGlobal, nil
	}
	return 0, fmt.Errorf("fleetnet: unknown tier %q (unit|region|global)", s)
}

// Tier-link wire format (all little-endian). Every message is a 6-byte
// header that declares its body length, then the body:
//
//	msg     := 'T' 'L' ver=0x02 kind:u8 blen:u16 body
//	hello   := node:u32 tier:u8                   (child → parent)
//	welcome := ack:u64                            (parent → child)
//	ack     := ack:u64                            (parent → child)
//	env     := seq:u64 sub:u8 id:u32 payload      (child → parent)
//
// An env carries one sequenced record; sub names the payload and id
// qualifies it. data: a unit telemetry frame in the downlink wire format
// (obs.DecodeFrame), id the unit (int32 bits). alert: one evidence-hashed
// watch alert (watch.DecodeAlert), id the origin node. hop: one trace hop
// record (tracequery.DecodeHop), id the stamping node. profile: one
// per-site profile record (prof.DecodeSiteRecord), id the origin node.
// Every subtype shares the one sequence space, so the store-and-forward
// ring, resume handshake and resequencing window cover them all; only
// the node that consumes an envelope looks at sub.
const (
	linkMagic0   = 'T'
	linkMagic1   = 'L'
	linkVersion  = 0x02
	msgHeaderLen = 6 // magic:2 ver:u8 kind:u8 blen:u16

	helloBodyLen = 5  // node:u32 tier:u8
	ackBodyLen   = 8  // ack:u64 (welcome and ack)
	envFixedLen  = 13 // seq:u64 sub:u8 id:u32

	// MaxPayload bounds an envelope's payload — far above any realistic
	// downlink frame budget, low enough that a corrupt length cannot make
	// the reader buffer garbage.
	MaxPayload = 4096
	maxBodyLen = envFixedLen + MaxPayload
)

// MsgKind tags one tier-link message.
type MsgKind uint8

// Tier-link message kinds.
const (
	KindHello   MsgKind = iota + 1 // child opens a session: node id + tier
	KindWelcome                    // parent's resume point: last sequence applied
	KindAck                        // parent's cumulative acknowledgement
	KindEnv                        // one sequenced envelope (see Sub)
)

// String returns the message kind name.
func (k MsgKind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindWelcome:
		return "welcome"
	case KindAck:
		return "ack"
	case KindEnv:
		return "env"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// Sub names the payload an envelope carries. The link layer moves it
// opaquely; Node dispatches on it.
type Sub uint8

// Envelope subtypes.
const (
	SubData    Sub = iota + 1 // unit telemetry frame; ID is the unit
	SubAlert                  // watch alert; ID is the origin node
	SubHop                    // trace hop record; ID is the stamping node
	SubProfile                // prof site record; ID is the origin node
)

// Envelope is one sequenced record on a tier link — what the uplink ring
// retains, the parent resequences and Apply receives.
type Envelope struct {
	Seq     uint64 // link-local sequence (1-based)
	Sub     Sub
	ID      uint32
	Payload []byte
}

// Msg is one decoded tier-link message. Only the fields of its kind are
// meaningful.
type Msg struct {
	Kind MsgKind

	Node uint32 // KindHello: child node id
	Tier Tier   // KindHello: child tier

	Ack uint64 // KindWelcome, KindAck: cumulative applied sequence

	Env Envelope // KindEnv (Payload aliases the decoded input)
}

// ErrLinkCorrupt reports a malformed tier-link message.
var ErrLinkCorrupt = errors.New("fleetnet: corrupt tier-link message")

// bodyLen is the body length of a kind-k message whose envelope carries
// plen payload bytes, or -1 for an unknown kind.
func bodyLen(k MsgKind, plen int) int {
	switch k {
	case KindHello:
		return helloBodyLen
	case KindWelcome, KindAck:
		return ackBodyLen
	case KindEnv:
		return envFixedLen + plen
	}
	return -1
}

// AppendMsg encodes m onto dst and returns the extended slice.
func AppendMsg(dst []byte, m Msg) []byte {
	blen := max(bodyLen(m.Kind, len(m.Env.Payload)), 0)
	dst = append(dst, linkMagic0, linkMagic1, linkVersion, byte(m.Kind))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(blen))
	switch m.Kind {
	case KindHello:
		dst = binary.LittleEndian.AppendUint32(dst, m.Node)
		dst = append(dst, byte(m.Tier))
	case KindWelcome, KindAck:
		dst = binary.LittleEndian.AppendUint64(dst, m.Ack)
	case KindEnv:
		dst = binary.LittleEndian.AppendUint64(dst, m.Env.Seq)
		dst = append(dst, byte(m.Env.Sub))
		dst = binary.LittleEndian.AppendUint32(dst, m.Env.ID)
		dst = append(dst, m.Env.Payload...)
	}
	return dst
}

// decodeHeader checks the fixed header at the head of b and returns the
// declared body length. It rejects a length above the largest body any
// kind may carry, so a reader never waits for or buffers more.
func decodeHeader(b []byte) (int, error) {
	if len(b) < msgHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes, need %d for the header", ErrLinkCorrupt, len(b), msgHeaderLen)
	}
	if b[0] != linkMagic0 || b[1] != linkMagic1 {
		return 0, fmt.Errorf("%w: bad magic %#02x%02x", ErrLinkCorrupt, b[0], b[1])
	}
	if b[2] != linkVersion {
		return 0, fmt.Errorf("%w: unknown version %d", ErrLinkCorrupt, b[2])
	}
	blen := int(binary.LittleEndian.Uint16(b[4:]))
	if blen > maxBodyLen {
		return 0, fmt.Errorf("%w: body %d bytes exceeds bound %d", ErrLinkCorrupt, blen, maxBodyLen)
	}
	return blen, nil
}

// DecodeMsg decodes one tier-link message from the head of b, returning
// the message, the bytes consumed, and an error on corruption. Like the
// downlink decoder it is a pure function: bounds-checked throughout, it
// never panics and never reads past the declared length, and the
// encoding is canonical — every kind must declare exactly its body
// length (FuzzTierDecode enforces this). An envelope's Payload aliases b.
func DecodeMsg(b []byte) (Msg, int, error) {
	blen, err := decodeHeader(b)
	if err != nil {
		return Msg{}, 0, err
	}
	m := Msg{Kind: MsgKind(b[3])}
	// An envelope's payload is whatever follows its fixed fields, so its
	// only length constraint is room for those fields.
	want := bodyLen(m.Kind, max(blen-envFixedLen, 0))
	if want < 0 {
		return Msg{}, 0, fmt.Errorf("%w: unknown kind %d", ErrLinkCorrupt, uint8(m.Kind))
	}
	if blen != want {
		return Msg{}, 0, fmt.Errorf("%w: %s body declares %d bytes, want %d", ErrLinkCorrupt, m.Kind, blen, want)
	}
	if len(b)-msgHeaderLen < blen {
		return Msg{}, 0, fmt.Errorf("%w: truncated %s body (%d of %d bytes)", ErrLinkCorrupt, m.Kind, len(b)-msgHeaderLen, blen)
	}
	body := b[msgHeaderLen : msgHeaderLen+blen]
	switch m.Kind {
	case KindHello:
		m.Node = binary.LittleEndian.Uint32(body)
		m.Tier = Tier(body[4])
	case KindWelcome, KindAck:
		m.Ack = binary.LittleEndian.Uint64(body)
	case KindEnv:
		m.Env = Envelope{
			Seq:     binary.LittleEndian.Uint64(body),
			Sub:     Sub(body[8]),
			ID:      binary.LittleEndian.Uint32(body[9:]),
			Payload: body[envFixedLen:],
		}
		if m.Env.Sub < SubData || m.Env.Sub > SubProfile {
			return Msg{}, 0, fmt.Errorf("%w: unknown envelope subtype %d", ErrLinkCorrupt, uint8(m.Env.Sub))
		}
	}
	return m, msgHeaderLen + blen, nil
}
