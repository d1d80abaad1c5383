package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// traceScratch is the fixed per-frame span budget: the operate path emits
// at most frame root + infer + supervisor + fdir + recovery + vote +
// deadline + drift spans, so 16 leaves headroom for future stages without
// any dynamic growth.
const traceScratch = 16

// traceHashChunk is how many encoded spans Hash feeds the digest per
// write.
const traceHashChunk = 64

// SpanRef addresses a span within the currently open frame so later
// stages can link their cause (verdict → pattern decision → FDIR
// transition). NoSpan marks "no cause" / "no open frame".
//
//safexplain:req REQ-XAI
type SpanRef int16

// NoSpan is the invalid SpanRef.
//
//safexplain:req REQ-XAI
const NoSpan SpanRef = -1

// TraceSpan is one node of a per-frame causal span tree. All fields are
// fixed-size scalars so recording never allocates. Parent is the
// structural tree edge (every non-root span's parent is the frame root);
// Cause is the causal edge (the span whose outcome triggered this one),
// which is what incident reconstruction walks.
//
//safexplain:req REQ-DET REQ-XAI
type TraceSpan struct {
	Seq    uint64 // global ordinal across frames (monotonic across wraps)
	Frame  int32  // frame index
	Idx    int16  // position within the frame (0 = root)
	Parent int16  // structural parent Idx (-1 for the root)
	Cause  int16  // causal predecessor Idx (-1 when none)
	Stage  Stage
	Code   int32
	Value  float64

	// Distributed-tracing v2 fields. ID is the frame's deterministic
	// 8-byte TraceID (unit<<32 | frame — see TraceID); Begin is the
	// injected-clock tick the span started at and Dur how many ticks it
	// ran. All three stay zero on a tracer with no clock and no unit, and
	// such spans travel the wire in the original 31-byte v1 record, so
	// every pre-v2 golden stays byte-exact.
	ID    uint64
	Begin uint64
	Dur   uint64
}

// TraceID composes the deterministic 8-byte trace identity of one frame
// on one unit: the unit id in the high 32 bits, the frame sequence in
// the low 32. The zero value (unit 0, frame 0) is reserved as
// "untraced". The composition is pure arithmetic, so any tier can
// recover (unit, frame) from an ID without a lookup table and the ID
// can be hashed into the evidence chain like any other scalar.
//
//safexplain:req REQ-XAI
//safexplain:hotpath
//safexplain:wcet
func TraceID(unit uint32, frame int32) uint64 {
	return uint64(unit)<<32 | uint64(uint32(frame))
}

// TraceIDUnit recovers the unit id from a TraceID.
//
//safexplain:req REQ-XAI
func TraceIDUnit(id uint64) uint32 { return uint32(id >> 32) }

// TraceIDFrame recovers the frame sequence from a TraceID.
//
//safexplain:req REQ-XAI
func TraceIDFrame(id uint64) int32 { return int32(uint32(id)) }

// FormatTraceID renders a TraceID in its canonical form: 16 lowercase
// hex digits, zero-padded — fixed width so lexicographic order equals
// numeric order in canonical JSON.
//
//safexplain:req REQ-XAI
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses the canonical 16-hex-digit form (a shorter or
// 0x-prefixed hex string is accepted for operator convenience).
//
//safexplain:req REQ-XAI
func ParseTraceID(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("obs: trace id %q: want up to 16 hex digits", s)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("obs: trace id %q: bad hex digit %q", s, c)
		}
		v = v<<4 | d
	}
	return v, nil
}

// NewCounterClock returns a deterministic monotonic clock: each call
// returns the previous value plus one, starting at 1. Tests and
// replay-deterministic experiments inject it where production injects a
// wall-derived tick source, so span timings — and therefore every trace
// bundle — are byte-exact across runs. The closure is safe for
// concurrent use and never allocates after construction.
//
//safexplain:req REQ-DET
func NewCounterClock() func() uint64 {
	var c atomicTick
	return c.next
}

// atomicTick is the counter behind NewCounterClock, kept as a named
// type so the returned method value captures one heap cell up front and
// the per-call path is a single atomic add — one counter clock may be
// shared across many tracers and fleet nodes.
type atomicTick struct{ v atomic.Uint64 }

func (t *atomicTick) next() uint64 { return t.v.Add(1) }

// TraceCtx is the causal frame tracer: a statically allocated scratch
// tree filled during one frame and committed to a fixed ring at frame
// end. The scratch-then-commit design keeps the per-frame spans
// contiguous in the ring (a downlinked frame is self-contained) and
// makes the record path a handful of struct stores — zero allocations,
// enforced by TestTraceRecordPathZeroAllocs.
//
//safexplain:req REQ-DET REQ-XAI
type TraceCtx struct {
	mu       sync.Mutex
	scratch  [traceScratch]TraceSpan
	n        int   // scratch spans in the open frame
	open     bool  // a frame is open
	frame    int32 // the open frame index
	ring     []TraceSpan
	next     uint64 // total spans ever committed
	frames   uint64 // frames committed
	overflow uint64 // spans dropped because scratch was full
	down     *Downlink

	// Distributed-tracing v2 state: the unit id folded into every
	// frame's TraceID and the injected monotonic tick source. Both stay
	// zero-valued by default, which disables v2 stamping entirely — the
	// clock is injected (never read from the ambient environment) so the
	// package keeps its determinism contract.
	unit  uint32
	clock func() uint64

	// Hash state, reused across calls so hashing the ring allocates
	// nothing but the returned string.
	hasher  hash.Hash
	hashBuf [traceHashChunk * spanV2PayloadLen]byte
}

// NewTraceCtx returns a tracer whose ring holds the last capacity spans
// (minimum traceScratch, so one full frame always fits).
//
//safexplain:req REQ-DET
func NewTraceCtx(capacity int) *TraceCtx {
	if capacity < traceScratch {
		capacity = traceScratch
	}
	return &TraceCtx{ring: make([]TraceSpan, capacity)}
}

// Attach routes committed spans into a downlink. Call before operating.
func (t *TraceCtx) Attach(d *Downlink) {
	t.mu.Lock()
	t.down = d
	t.mu.Unlock()
}

// SetUnit sets the unit id folded into every subsequent frame's TraceID.
// Call before operating; frames already open keep their identity.
func (t *TraceCtx) SetUnit(unit uint32) {
	t.mu.Lock()
	t.unit = unit
	t.mu.Unlock()
}

// SetClock injects the monotonic tick source stamped into span
// begin/duration fields. Production injects a wall-derived reader;
// deterministic tests inject NewCounterClock. A nil clock (the default)
// disables timing capture, keeping v1 byte-exact behaviour.
func (t *TraceCtx) SetClock(clock func() uint64) {
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// TraceID returns the open frame's trace identity, or 0 when no frame
// is open. Zero-allocation — the exemplar record path calls it per
// observation.
//
//safexplain:hotpath
//safexplain:wcet
func (t *TraceCtx) TraceID() uint64 {
	t.mu.Lock()
	id := uint64(0)
	if t.open {
		id = TraceID(t.unit, t.frame)
	}
	t.mu.Unlock()
	return id
}

// now reads the injected clock, or 0 with none set. Caller holds the
// mutex.
//
//safexplain:hotpath
//safexplain:wcet
func (t *TraceCtx) now() uint64 {
	if t.clock == nil {
		return 0
	}
	//safexplain:dynamic injected tick source: counter clock in tests, wall-derived reader in production; both are constant-time and allocation-free
	return t.clock()
}

// Begin opens a frame and records its root span (StageFrame). If a frame
// is still open — an End was missed — it is committed first so spans are
// never silently lost. Zero-allocation.
//
//safexplain:hotpath
//safexplain:wcet
func (t *TraceCtx) Begin(frame int) {
	t.mu.Lock()
	if t.open {
		t.commit()
	}
	t.open = true
	t.frame = int32(frame)
	t.n = 1
	t.scratch[0] = TraceSpan{
		Frame: int32(frame), Idx: 0, Parent: -1, Cause: -1, Stage: StageFrame,
		Begin: t.now(),
	}
	t.mu.Unlock()
}

// Child records one stage span under the open frame root, causally linked
// to cause (NoSpan for none), and returns its ref for later links. With
// no open frame, or with the scratch tree full, the span is counted as
// overflow and NoSpan is returned — the record path never fails, it
// degrades. Zero-allocation.
//
//safexplain:hotpath
//safexplain:wcet
func (t *TraceCtx) Child(stage Stage, code int32, value float64, cause SpanRef) SpanRef {
	t.mu.Lock()
	if !t.open || t.n >= traceScratch {
		if t.open {
			t.overflow++
		}
		t.mu.Unlock()
		return NoSpan
	}
	idx := int16(t.n)
	c := int16(cause)
	if cause < 0 || int(cause) >= t.n {
		c = -1
	}
	// Stage spans run sequentially under the frame root, so the tick
	// that starts this span also finalizes the previous sibling's
	// duration — one clock read per stage boundary.
	now := t.now()
	if t.n > 1 {
		prev := &t.scratch[t.n-1]
		prev.Dur = now - prev.Begin
	}
	t.scratch[t.n] = TraceSpan{
		Frame: t.frame, Idx: idx, Parent: 0, Cause: c, Stage: stage,
		Code: code, Value: value, Begin: now,
	}
	t.n++
	t.mu.Unlock()
	return SpanRef(idx)
}

// SetCode patches the code of a span in the open frame — the infer span
// is recorded before the pattern decides which class is delivered, then
// patched. No-op on invalid refs or closed frames. Zero-allocation.
//
//safexplain:hotpath
//safexplain:wcet
func (t *TraceCtx) SetCode(ref SpanRef, code int32) {
	t.mu.Lock()
	if t.open && ref > 0 && int(ref) < t.n {
		t.scratch[ref].Code = code
	}
	t.mu.Unlock()
}

// Root returns the open frame's root span ref (NoSpan when no frame is
// open). Zero-allocation.
//
//safexplain:hotpath
//safexplain:wcet
func (t *TraceCtx) Root() SpanRef {
	t.mu.Lock()
	open := t.open
	t.mu.Unlock()
	if open {
		return 0
	}
	return NoSpan
}

// End commits the open frame's spans to the ring (and, when a downlink is
// attached, into its priority queues). Zero-allocation.
//
//safexplain:hotpath
//safexplain:wcet
func (t *TraceCtx) End() {
	t.mu.Lock()
	if t.open {
		t.commit()
	}
	t.mu.Unlock()
}

// commit assigns global ordinals and copies the scratch tree into the
// ring. Caller holds the mutex.
//
//safexplain:hotpath
//safexplain:wcet
func (t *TraceCtx) commit() {
	// Frame end: one clock read finalizes the last stage span and the
	// root, and the frame's TraceID is stamped onto every span — commit
	// is the single point where a span becomes externally visible, so
	// identity and timing are always consistent within a frame.
	now := t.now()
	if t.n > 1 {
		last := &t.scratch[t.n-1]
		last.Dur = now - last.Begin
	}
	t.scratch[0].Dur = now - t.scratch[0].Begin
	id := uint64(0)
	if t.unit != 0 || t.clock != nil {
		id = TraceID(t.unit, t.frame)
	}
	//safexplain:bounded scratch span count is capped by the fixed traceScratch array
	for i := 0; i < t.n; i++ {
		t.scratch[i].Seq = t.next + uint64(i)
		t.scratch[i].ID = id
		t.ring[(t.next+uint64(i))%uint64(len(t.ring))] = t.scratch[i]
		if t.down != nil {
			t.down.PushSpan(t.scratch[i])
		}
	}
	t.next += uint64(t.n)
	t.frames++
	t.n = 0
	t.open = false
}

// Cap returns the ring capacity.
func (t *TraceCtx) Cap() int { return len(t.ring) }

// Total returns the number of spans ever committed.
func (t *TraceCtx) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Frames returns the number of frames committed.
func (t *TraceCtx) Frames() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frames
}

// Overflow returns the spans dropped because a frame exceeded the
// scratch budget.
func (t *TraceCtx) Overflow() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overflow
}

// Len returns the number of spans currently held in the ring.
func (t *TraceCtx) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held()
}

func (t *TraceCtx) held() int {
	if t.next < uint64(len(t.ring)) {
		return int(t.next)
	}
	return len(t.ring)
}

// Spans returns the held spans oldest-first — the dump path. Allocates;
// never call it per frame.
func (t *TraceCtx) Spans() []TraceSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.held()
	out := make([]TraceSpan, 0, n)
	start := t.next - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, t.ring[(start+i)%uint64(len(t.ring))])
	}
	return out
}

// Hash returns the SHA-256 over the held spans in order (fixed binary
// encoding), hex-encoded. Like Flight.Hash, this is what links the trace
// ring into the evidence chain: the chained record proves which causal
// history a downlinked reconstruction claims. The hash always covers
// the v2 encoding — a v1-only span encodes with 24 zero trailing bytes,
// so the hash stays deterministic whether or not timing was captured.
// It encodes the ring in place under the lock, a chunk of spans per
// digest write, and allocates only the returned string.
func (t *TraceCtx) Hash() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hasher == nil {
		t.hasher = sha256.New()
	}
	h := t.hasher
	h.Reset()
	n := uint64(t.held())
	start := t.next - n
	k := 0
	for i := uint64(0); i < n; i++ {
		encodeTraceSpanV2((*[spanV2PayloadLen]byte)(t.hashBuf[k:]), t.ring[(start+i)%uint64(len(t.ring))])
		if k += spanV2PayloadLen; k == len(t.hashBuf) {
			h.Write(t.hashBuf[:])
			k = 0
		}
	}
	h.Write(t.hashBuf[:k])
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], h.Sum(t.hashBuf[:0]))
	return string(hexSum[:])
}

// encodeTraceSpan writes the canonical 31-byte binary encoding of one
// span — shared by the ring hash and the downlink wire format, so a
// ground-side re-hash of a complete downlink matches the on-board ring.
//
//safexplain:hotpath
//safexplain:wcet
func encodeTraceSpan(buf *[31]byte, s TraceSpan) {
	binary.LittleEndian.PutUint64(buf[0:], s.Seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(s.Frame))
	binary.LittleEndian.PutUint16(buf[12:], uint16(s.Idx))
	binary.LittleEndian.PutUint16(buf[14:], uint16(s.Parent))
	binary.LittleEndian.PutUint16(buf[16:], uint16(s.Cause))
	buf[18] = byte(s.Stage)
	binary.LittleEndian.PutUint32(buf[19:], uint32(s.Code))
	binary.LittleEndian.PutUint64(buf[23:], math.Float64bits(s.Value))
}

// decodeTraceSpan is the inverse of encodeTraceSpan.
func decodeTraceSpan(b []byte) TraceSpan {
	return TraceSpan{
		Seq:    binary.LittleEndian.Uint64(b[0:]),
		Frame:  int32(binary.LittleEndian.Uint32(b[8:])),
		Idx:    int16(binary.LittleEndian.Uint16(b[12:])),
		Parent: int16(binary.LittleEndian.Uint16(b[14:])),
		Cause:  int16(binary.LittleEndian.Uint16(b[16:])),
		Stage:  Stage(b[18]),
		Code:   int32(binary.LittleEndian.Uint32(b[19:])),
		Value:  math.Float64frombits(binary.LittleEndian.Uint64(b[23:])),
	}
}

// encodeTraceSpanV2 writes the canonical 55-byte v2 encoding: the v1
// record followed by TraceID, begin tick and duration ticks, all
// little-endian. The v1 prefix is byte-identical to encodeTraceSpan, so
// ground-side tooling can treat a v2 record as a v1 record plus a fixed
// trailer.
//
//safexplain:hotpath
//safexplain:wcet
func encodeTraceSpanV2(buf *[spanV2PayloadLen]byte, s TraceSpan) {
	binary.LittleEndian.PutUint64(buf[0:], s.Seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(s.Frame))
	binary.LittleEndian.PutUint16(buf[12:], uint16(s.Idx))
	binary.LittleEndian.PutUint16(buf[14:], uint16(s.Parent))
	binary.LittleEndian.PutUint16(buf[16:], uint16(s.Cause))
	buf[18] = byte(s.Stage)
	binary.LittleEndian.PutUint32(buf[19:], uint32(s.Code))
	binary.LittleEndian.PutUint64(buf[23:], math.Float64bits(s.Value))
	binary.LittleEndian.PutUint64(buf[31:], s.ID)
	binary.LittleEndian.PutUint64(buf[39:], s.Begin)
	binary.LittleEndian.PutUint64(buf[47:], s.Dur)
}

// decodeTraceSpanV2 is the inverse of encodeTraceSpanV2.
func decodeTraceSpanV2(b []byte) TraceSpan {
	s := decodeTraceSpan(b)
	s.ID = binary.LittleEndian.Uint64(b[31:])
	s.Begin = binary.LittleEndian.Uint64(b[39:])
	s.Dur = binary.LittleEndian.Uint64(b[47:])
	return s
}

// Dump renders the held spans as an indented causal tree, newest frame
// last.
func (t *TraceCtx) Dump() string {
	spans := t.Spans()
	var b strings.Builder
	fmt.Fprintf(&b, "trace context: %d/%d spans held (%d committed over %d frames, %d overflowed), hash %.12s…\n",
		len(spans), t.Cap(), t.Total(), t.Frames(), t.Overflow(), t.Hash())
	for _, s := range spans {
		indent := "  "
		if s.Idx > 0 {
			indent = "    "
		}
		cause := ""
		if s.Cause >= 0 {
			cause = fmt.Sprintf(" cause=%d", s.Cause)
		}
		fmt.Fprintf(&b, "%s%6d frame=%-5d %-14s code=%-4d value=%g%s\n",
			indent, s.Seq, s.Frame, s.Stage, s.Code, s.Value, cause)
	}
	return b.String()
}
