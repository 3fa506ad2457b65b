package gossip

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"unsafe"

	"github.com/b-iot/biot/internal/hashutil"
)

// TestReplyIsReadIntoTheLentBuffer: a Request under WithReplyBuffer gets
// its reply's TxData in the lent buffer's storage, exchange after exchange
// through the one buffer as replies grow and shrink, and each reply is its
// own; the peer gets the request's Have window intact, decoded into its
// pooled scratch. Without a lent buffer a reply still owns its bytes.
func TestReplyIsReadIntoTheLentBuffer(t *testing.T) {
	a, _ := listenPooled(t)
	b, _ := listenPooled(t)
	a.AddPeer(b.Self())
	entries := func(round uint64) [][]byte {
		out := make([][]byte, 1+round%4)
		for i := range out {
			out[i] = bytes.Repeat([]byte{byte(round), byte(i)}, int(1+round*50))
		}
		return out
	}
	b.SetHandler(HandlerFunc(func(_ string, msg Message) (*Message, error) {
		for i, id := range msg.Have {
			if id != (hashutil.Hash{byte(msg.Offset), byte(i)}) {
				return nil, fmt.Errorf("have[%d] = %s", i, id.Short())
			}
		}
		return &Message{Type: MsgSyncResponse, TxData: entries(msg.Offset), Offset: msg.Offset}, nil
	}))
	inside := func(entry, frame []byte) bool {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
		p := uintptr(unsafe.Pointer(unsafe.SliceData(entry)))
		return p >= lo && p+uintptr(len(entry)) <= lo+uintptr(cap(frame))
	}

	buf := new(ReplyBuffer)
	lent := WithReplyBuffer(context.Background(), buf)
	if ReplyBufferOf(lent) != buf || ReplyBufferOf(context.Background()) != nil {
		t.Fatal("ReplyBufferOf does not return what was lent")
	}
	for _, round := range []uint64{3, 7, 1, 12, 2, 5} {
		have := make([]hashutil.Hash, round)
		for i := range have {
			have[i] = hashutil.Hash{byte(round), byte(i)}
		}
		reply, err := a.Request(lent, b.Self(), Message{Type: MsgSyncRequest, Offset: round, Have: have})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := entries(round)
		if reply.Offset != round || len(reply.TxData) != len(want) {
			t.Fatalf("round %d: reply for offset %d with %d entries, want %d", round, reply.Offset, len(reply.TxData), len(want))
		}
		for i, entry := range reply.TxData {
			if !bytes.Equal(entry, want[i]) {
				t.Fatalf("round %d: entry %d differs", round, i)
			}
			if !inside(entry, buf.frame) {
				t.Fatalf("round %d: entry %d is not in the lent buffer", round, i)
			}
		}
		if unsafe.SliceData(reply.TxData) != unsafe.SliceData(buf.txData[:1]) {
			t.Fatalf("round %d: the TxData headers are not in the lent buffer", round)
		}
	}

	reply, err := a.Request(context.Background(), b.Self(), Message{Type: MsgSyncRequest, Offset: 9})
	if err != nil {
		t.Fatal(err)
	}
	if inside(reply.TxData[0], buf.frame) {
		t.Fatal("a reply with no buffer lent was read into the buffer lent before")
	}
	if !bytes.Equal(reply.TxData[1], entries(9)[1]) {
		t.Fatal("a reply with no buffer lent is not its own")
	}
}
