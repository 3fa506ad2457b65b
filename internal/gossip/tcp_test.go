package gossip

import (
	"context"
	"net"
	"testing"
	"time"
)

func listen(t *testing.T) (*TCPNetwork, *echoHandler) {
	t.Helper()
	n, err := listenTCP("127.0.0.1:0", func(n *TCPNetwork) { n.dialTO, n.ioTO = 2*time.Second, 5*time.Second })
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	h := &echoHandler{reply: &Message{}}
	n.SetHandler(h)
	return n, h
}

func TestTCPRequestReply(t *testing.T) {
	a, _ := listen(t)
	b, hb := listen(t)
	hb.reply = &Message{Type: MsgSyncResponse, TxData: [][]byte{{1, 2}}}
	a.AddPeer(b.Self())

	reply, err := a.Request(context.Background(), b.Self(), Message{Type: MsgSyncRequest})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgSyncResponse || len(reply.TxData) != 1 {
		t.Errorf("reply = %+v", reply)
	}
	if hb.count() != 1 {
		t.Errorf("b received %d", hb.count())
	}
}

func TestTCPBroadcast(t *testing.T) {
	a, _ := listen(t)
	b, hb := listen(t)
	c, hc := listen(t)
	a.AddPeer(b.Self())
	a.AddPeer(c.Self())

	if err := a.Broadcast(context.Background(), Message{Type: MsgTransaction, TxData: [][]byte{{7}}}); err != nil {
		t.Fatal(err)
	}
	if hb.count() != 1 || hc.count() != 1 {
		t.Errorf("received b=%d c=%d", hb.count(), hc.count())
	}
}

func TestTCPBroadcastSurvivesDeadPeer(t *testing.T) {
	a, _ := listen(t)
	b, hb := listen(t)
	dead, _ := listen(t)
	deadAddr := dead.Self()
	_ = dead.Close()

	a.AddPeer(deadAddr)
	a.AddPeer(b.Self())
	if err := a.Broadcast(context.Background(), Message{Type: MsgTransaction}); err != nil {
		t.Fatalf("broadcast with one dead peer: %v", err)
	}
	if hb.count() != 1 {
		t.Errorf("live peer received %d", hb.count())
	}
}

func TestTCPRequestDeadPeer(t *testing.T) {
	a, _ := listen(t)
	dead, _ := listen(t)
	addr := dead.Self()
	_ = dead.Close()
	if _, err := a.Request(context.Background(), addr, Message{}); err == nil {
		t.Error("request to dead peer succeeded")
	}
}

func TestTCPPeerManagement(t *testing.T) {
	a, _ := listen(t)
	a.AddPeer("10.0.0.1:1")
	a.AddPeer("10.0.0.1:2")
	a.AddPeer(a.Self()) // self is never a peer
	if got := a.Peers(); len(got) != 2 {
		t.Errorf("peers = %v", got)
	}
	a.RemovePeer("10.0.0.1:1")
	if got := a.Peers(); len(got) != 1 || got[0] != "10.0.0.1:2" {
		t.Errorf("peers = %v", got)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	n, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := n.Request(context.Background(), "127.0.0.1:1", Message{}); err == nil {
		t.Error("request on closed network succeeded")
	}
}

func TestTCPMalformedLineIgnored(t *testing.T) {
	// A peer sending garbage must not crash the server; subsequent
	// requests still work.
	a, _ := listen(t)
	b, _ := listen(t)
	a.AddPeer(b.Self())
	// Direct garbage write.
	conn, err := dialRaw(b.Self())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte("this is not json\n"))
	_ = conn.Close()

	if _, err := a.Request(context.Background(), b.Self(), Message{Type: MsgSyncRequest}); err != nil {
		t.Errorf("request after garbage: %v", err)
	}
}

func dialRaw(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}
