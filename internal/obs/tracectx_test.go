package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
)

// traceOneFrame records a representative operate-path frame: root,
// infer, supervisor verdict, FDIR verdict, vote — the chain Step wires.
func traceOneFrame(o *Obs, frame int, anoms int32) {
	o.TraceBegin(frame)
	infer := o.TraceChild(StageInfer, -1, 0, o.TraceRoot())
	sup := o.TraceChild(StageSupervisor, anoms, 0, infer)
	fd := o.TraceChild(StageFDIR, 0, 0, sup)
	o.TraceSetCode(infer, 7)
	o.TraceChild(StageVote, 0, 7, fd)
	o.TraceEnd(frame)
}

func TestTraceFrameTreeAndCauseLinks(t *testing.T) {
	o := New(Config{Name: "trace"})
	traceOneFrame(o, 0, 2)

	spans := o.Trace.Spans()
	if len(spans) != 5 {
		t.Fatalf("held %d spans, want 5", len(spans))
	}
	if spans[0].Stage != StageFrame || spans[0].Idx != 0 || spans[0].Parent != -1 {
		t.Fatalf("root span malformed: %+v", spans[0])
	}
	// The infer span's code was patched after the vote.
	if spans[1].Stage != StageInfer || spans[1].Code != 7 {
		t.Fatalf("infer span not patched: %+v", spans[1])
	}
	// Causal chain: vote ← fdir ← supervisor ← infer ← (root has none).
	wantCause := []int16{-1, 0, 1, 2, 3}
	for i, s := range spans {
		if s.Cause != wantCause[i] {
			t.Errorf("span %d (%s) cause = %d, want %d", i, s.Stage, s.Cause, wantCause[i])
		}
		if s.Frame != 0 {
			t.Errorf("span %d frame = %d, want 0", i, s.Frame)
		}
		if s.Seq != uint64(i) {
			t.Errorf("span %d seq = %d, want %d", i, s.Seq, i)
		}
	}
	if o.Trace.Frames() != 1 {
		t.Fatalf("frames = %d, want 1", o.Trace.Frames())
	}
}

func TestTraceChildOutsideFrameIsNoop(t *testing.T) {
	o := New(Config{Name: "trace"})
	if ref := o.TraceChild(StageInfer, 1, 0, NoSpan); ref != NoSpan {
		t.Fatalf("child outside a frame returned %d, want NoSpan", ref)
	}
	if o.TraceRoot() != NoSpan {
		t.Fatal("root outside a frame should be NoSpan")
	}
	if o.Trace.Total() != 0 || o.Trace.Overflow() != 0 {
		t.Fatalf("stray spans recorded: total=%d overflow=%d", o.Trace.Total(), o.Trace.Overflow())
	}
}

func TestTraceScratchOverflowCounted(t *testing.T) {
	tc := NewTraceCtx(64)
	tc.Begin(0)
	for i := 0; i < traceScratch+5; i++ {
		tc.Child(StageInfer, int32(i), 0, NoSpan)
	}
	tc.End()
	if tc.Overflow() != 6 { // root takes one slot; 15 children fit
		t.Fatalf("overflow = %d, want 6", tc.Overflow())
	}
	if tc.Total() != traceScratch {
		t.Fatalf("total = %d, want %d", tc.Total(), traceScratch)
	}
}

func TestTraceBeginCommitsOpenFrame(t *testing.T) {
	tc := NewTraceCtx(64)
	tc.Begin(0)
	tc.Child(StageInfer, 1, 0, 0)
	tc.Begin(1) // missed End: frame 0 must still commit
	tc.End()
	spans := tc.Spans()
	if len(spans) != 3 {
		t.Fatalf("held %d spans, want 3 (2 from frame 0, 1 root from frame 1)", len(spans))
	}
	if spans[0].Frame != 0 || spans[2].Frame != 1 {
		t.Fatalf("frames not committed in order: %+v", spans)
	}
}

func TestTraceRingWrapKeepsNewest(t *testing.T) {
	tc := NewTraceCtx(traceScratch) // minimum: exactly one frame's worth
	for f := 0; f < 10; f++ {
		tc.Begin(f)
		tc.Child(StageInfer, int32(f), 0, 0)
		tc.End()
	}
	spans := tc.Spans()
	if len(spans) != traceScratch {
		t.Fatalf("held %d, want %d", len(spans), traceScratch)
	}
	// The newest span must be from the last frame.
	if last := spans[len(spans)-1]; last.Frame != 9 {
		t.Fatalf("newest span frame = %d, want 9", last.Frame)
	}
	if tc.Total() != 20 { // 2 spans per frame × 10 frames
		t.Fatalf("total = %d, want 20", tc.Total())
	}
}

func TestTraceHashDeterministicAndSensitive(t *testing.T) {
	mk := func(code int32) *TraceCtx {
		tc := NewTraceCtx(64)
		tc.Begin(0)
		tc.Child(StageInfer, code, 0.5, 0)
		tc.End()
		return tc
	}
	a, b, c := mk(3), mk(3), mk(4)
	if a.Hash() != b.Hash() {
		t.Fatal("identical histories hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different histories hash identically")
	}
}

// refTraceHash is the ring hash by its definition: SHA-256 over the
// v2 encoding of Spans(), oldest first.
func refTraceHash(tc *TraceCtx) string {
	h := sha256.New()
	var buf [spanV2PayloadLen]byte
	for _, s := range tc.Spans() {
		encodeTraceSpanV2(&buf, s)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceHashInPlaceMatchesSpans checks the in-place chunked hash
// against the definition on wrapped rings, including one whose size is a
// whole number of hash chunks and one that is not, with v2 timing on.
func TestTraceHashInPlaceMatchesSpans(t *testing.T) {
	for _, capacity := range []int{2 * traceHashChunk, 3*traceHashChunk + 7} {
		tc := NewTraceCtx(capacity)
		tc.SetUnit(7)
		tc.SetClock(NewCounterClock())
		for f := 0; f < capacity; f++ {
			tc.Begin(f)
			ref := tc.Child(StageInfer, int32(f), float64(f)/3, 0)
			tc.Child(StageVote, 1, 0.25, ref)
			tc.End()
		}
		if tc.Total() <= uint64(capacity) {
			t.Fatalf("capacity %d: ring did not wrap (%d spans)", capacity, tc.Total())
		}
		if got, want := tc.Hash(), refTraceHash(tc); got != want {
			t.Fatalf("capacity %d: in-place hash %s, Spans() hash %s", capacity, got, want)
		}
	}
	if got, want := NewTraceCtx(0).Hash(), refTraceHash(NewTraceCtx(0)); got != want {
		t.Fatalf("empty ring: in-place hash %s, Spans() hash %s", got, want)
	}
}

// TestTraceHashAllocs bounds Hash to the returned string: it must not
// copy the ring, which Operate re-hashes on every call.
func TestTraceHashAllocs(t *testing.T) {
	tc := NewTraceCtx(1024)
	for f := 0; f < 600; f++ {
		tc.Begin(f)
		tc.Child(StageInfer, 1, 0, 0)
		tc.End()
	}
	tc.Hash()
	if allocs := testing.AllocsPerRun(50, func() { tc.Hash() }); allocs > 1 {
		t.Fatalf("Hash allocates %v times per call, want at most 1 (the hex string)", allocs)
	}
}

// TestTraceRecordPathZeroAllocs holds the trace path to the same bar as
// the flight recorder: begin + children + patch + end, 0 allocs/op.
func TestTraceRecordPathZeroAllocs(t *testing.T) {
	o := New(Config{Name: "alloc-test"})
	frame := 0
	allocs := testing.AllocsPerRun(200, func() {
		traceOneFrame(o, frame, 1)
		frame++
	})
	if allocs != 0 {
		t.Fatalf("trace record path allocates: %v allocs/op", allocs)
	}
}

// TestTraceRecordPathZeroAllocsWithDownlink includes queueing and frame
// emission — the full telemetry path must also be allocation-free.
func TestTraceRecordPathZeroAllocsWithDownlink(t *testing.T) {
	o := New(Config{Name: "alloc-test"})
	o.AttachDownlink(NewDownlink(DownlinkConfig{BytesPerFrame: 512}))
	frame := 0
	allocs := testing.AllocsPerRun(200, func() {
		traceOneFrame(o, frame, 1)
		frame++
	})
	if allocs != 0 {
		t.Fatalf("trace+downlink record path allocates: %v allocs/op", allocs)
	}
}

func TestTraceNilObsIsSafe(t *testing.T) {
	var o *Obs
	o.TraceBegin(0)
	if ref := o.TraceChild(StageInfer, 0, 0, NoSpan); ref != NoSpan {
		t.Fatal("nil obs TraceChild should return NoSpan")
	}
	o.TraceSetCode(NoSpan, 1)
	if o.TraceRoot() != NoSpan {
		t.Fatal("nil obs TraceRoot should return NoSpan")
	}
	o.TraceEnd(0)
	o.AttachDownlink(nil)
}

func TestTraceConcurrentFrames(t *testing.T) {
	o := New(Config{Name: "race", TraceCapacity: 128})
	var wg sync.WaitGroup
	const workers, per = 4, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				traceOneFrame(o, i, int32(w))
			}
		}(w)
	}
	wg.Wait()
	if got := o.Trace.Frames(); got < workers*per {
		// Interleaved Begins may auto-commit partial frames, but every
		// Begin eventually commits, so at least workers*per frames.
		t.Fatalf("frames = %d, want >= %d", got, workers*per)
	}
}

// BenchmarkTraceRecordPath proves the acceptance claim: the full
// per-frame causal record path (root + infer + supervisor + FDIR + vote,
// code patch, commit, downlink push + frame emit) runs at 0 allocs/op.
func BenchmarkTraceRecordPath(b *testing.B) {
	o := New(Config{Name: "bench"})
	o.AttachDownlink(NewDownlink(DownlinkConfig{BytesPerFrame: 256, CaptureBytes: 1 << 26}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOneFrame(o, i, 1)
	}
}
