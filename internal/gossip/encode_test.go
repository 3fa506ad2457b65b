package gossip

import (
	"bytes"
	"errors"
	"testing"

	"github.com/b-iot/biot/internal/hashutil"
)

func sampleMessages() []Message {
	return []Message{
		{},
		{Type: MsgTransaction, TxData: [][]byte{{1, 2, 3}}},
		{Type: MsgTransaction, TxData: [][]byte{{1}, {2, 2}, {}, bytes.Repeat([]byte{0xAB}, 300)}},
		{Type: MsgSyncRequest, Have: []hashutil.Hash{hashutil.Sum([]byte("a")), hashutil.Sum([]byte("b"))}},
		{Type: MsgSyncResponse, TxData: [][]byte{bytes.Repeat([]byte{7}, 1000)}, Have: []hashutil.Hash{{}}},
		{Type: MsgSyncRequest, Have: []hashutil.Hash{hashutil.Sum([]byte("c"))}, Offset: 4096},
		{Type: MsgSyncResponse, TxData: [][]byte{{9}}, Offset: 4352, Total: 1 << 33, More: true},
		{Type: MsgSyncResponse, Offset: 1, Total: 1},
		{Type: MsgTransaction, TxData: [][]byte{{4, 5}}, Shard: 3, Scoped: true},
		{Type: MsgSyncRequest, Have: []hashutil.Hash{hashutil.Sum([]byte("d"))}, Offset: 16, Shard: 0, Scoped: true},
		{Type: MsgSyncResponse, TxData: [][]byte{{6}}, Offset: 1, Total: 9, More: true, Shard: 1 << 20, Scoped: true},
		{Type: MsgCreditRequest, Offset: 128, Shard: 2, Scoped: true},
		{Type: MsgCreditResponse, TxData: [][]byte{[]byte(`{"accounts":[]}`)}, Total: 5, Shard: 2, Scoped: true},
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for i, msg := range sampleMessages() {
		raw := EncodeMessage(msg)
		got, err := DecodeMessage(raw)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Type != msg.Type || len(got.TxData) != len(msg.TxData) || len(got.Have) != len(msg.Have) {
			t.Fatalf("case %d: round trip mismatch: %+v vs %+v", i, got, msg)
		}
		if got.Offset != msg.Offset || got.Total != msg.Total || got.More != msg.More {
			t.Fatalf("case %d: paging fields mismatch: %+v vs %+v", i, got, msg)
		}
		if got.Shard != msg.Shard || got.Scoped != msg.Scoped {
			t.Fatalf("case %d: shard fields mismatch: %+v vs %+v", i, got, msg)
		}
		for j := range msg.TxData {
			if !bytes.Equal(got.TxData[j], msg.TxData[j]) {
				t.Errorf("case %d: tx %d mismatch", i, j)
			}
		}
		for j := range msg.Have {
			if got.Have[j] != msg.Have[j] {
				t.Errorf("case %d: have %d mismatch", i, j)
			}
		}
		// Canonical: re-encode reproduces the exact bytes.
		if !bytes.Equal(EncodeMessage(got), raw) {
			t.Errorf("case %d: re-encode differs", i)
		}
	}
}

// TestMessageTypeWireValues pins every message type's wire value: a peer
// built before a type was retired still speaks the others by number.
func TestMessageTypeWireValues(t *testing.T) {
	for typ, want := range map[MsgType]int{
		MsgTransaction: 1, MsgSyncRequest: 2, MsgSyncResponse: 3,
		MsgSnapshotRequest: 4, MsgSnapshotResponse: 5,
		MsgCreditRequest: 8, MsgCreditResponse: 9,
	} {
		if int(typ) != want {
			t.Errorf("%v has wire value %d, want %d", typ, int(typ), want)
		}
	}
}

func TestMessageDecodeRejects(t *testing.T) {
	valid := EncodeMessage(Message{Type: MsgTransaction, TxData: [][]byte{{1, 2}}})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte{0x00, 0x01, 0x01, 0x01, 0x00, 0x00}},
		{"bad version", []byte{encMagic0, encMagic1, 0x7F, 0x01, 0x00, 0x00}},
		{"truncated header", valid[:2]},
		{"truncated body", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte(nil), valid...), 0x00)},
		{"tx count exceeds payload", []byte{encMagic0, encMagic1, encVersion, 0x01, 0xFF, 0x01, 0x00}},
		{"non-minimal varint", []byte{encMagic0, encMagic1, encVersion, 0x81, 0x00, 0x00, 0x00}},
		{"missing paging fields", EncodeMessage(Message{Type: MsgSyncResponse})[:5]},
		{"non-boolean more flag", append(EncodeMessage(Message{Type: MsgSyncRequest})[:8], 0x02)},
		{"non-boolean scoped flag", append(EncodeMessage(Message{Type: MsgSyncRequest})[:10], 0x02)},
		{"shard set on unscoped message", append(append(EncodeMessage(Message{Type: MsgSyncRequest})[:9], 0x01), 0x00)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeMessage(tc.data); !errors.Is(err, ErrBadMessage) {
				t.Errorf("err = %v, want ErrBadMessage", err)
			}
		})
	}
}

func TestMessageDecodeSizeLimit(t *testing.T) {
	huge := make([]byte, MaxMessageBytes+1)
	if _, err := DecodeMessage(huge); !errors.Is(err, ErrMessageSize) {
		t.Errorf("err = %v, want ErrMessageSize", err)
	}
}
