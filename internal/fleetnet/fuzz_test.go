package fleetnet

import (
	"bytes"
	"testing"

	"safexplain/internal/tracequery"
)

// FuzzTierDecode drives the tier-link message decoder with arbitrary
// bytes. The contract matches the downlink decoder's: never panic, never
// read past the declared lengths, and anything accepted must re-encode
// to exactly the bytes consumed (the encoding is canonical).
func FuzzTierDecode(f *testing.F) {
	f.Add(AppendMsg(nil, Msg{Kind: KindHello, Node: 7, Tier: TierUnit}))
	f.Add(AppendMsg(nil, Msg{Kind: KindWelcome, Ack: 42}))
	f.Add(AppendMsg(nil, envMsg(3, SubData, 9, []byte("frame"))))
	f.Add(AppendMsg(nil, Msg{Kind: KindAck, Ack: 11}))
	f.Add(AppendMsg(nil, envMsg(5, SubAlert, 12, []byte(`{"origin":"n12"}`))))
	f.Add([]byte{})
	// A header declaring a body far above the bound.
	f.Add([]byte{linkMagic0, linkMagic1, linkVersion, byte(KindEnv), 0xff, 0xff})
	f.Add(AppendMsg(nil, envMsg(6, SubHop, 100, tracequery.EncodeHop(tracequery.Hop{Unit: 1, Frame: 2, Node: 100, Tier: "region", Ingest: 3, Relay: 4}))))
	f.Add(AppendMsg(nil, envMsg(7, SubProfile, 8, []byte("site-record"))))
	f.Add(AppendMsg(nil, envMsg(8, SubData, 1, make([]byte, MaxPayload))))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeMsg(data)
		if err != nil {
			return // corrupt input rejected: that is the contract
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if got := AppendMsg(nil, m); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encode differs from consumed bytes:\n%x\n%x", got, data[:n])
		}
	})
}
