package gossip

import (
	"context"
	"sync"
	"testing"
	"time"
)

// benchFleet stands up one sender plus `peers` acking receivers on
// loopback and returns the sender.
func benchFleet(b *testing.B, peers int, tune func(*TCPNetwork)) *TCPNetwork {
	b.Helper()
	ack := HandlerFunc(func(string, Message) (*Message, error) { return &Message{}, nil })
	sender, err := listenTCP("127.0.0.1:0", tune)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = sender.Close() })
	sender.SetHandler(ack)
	for i := 0; i < peers; i++ {
		r, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = r.Close() })
		r.SetHandler(ack)
		sender.AddPeer(r.Self())
	}
	return sender
}

func benchMessage() Message {
	batch := make([][]byte, 16)
	for i := range batch {
		tx := make([]byte, 160)
		for j := range tx {
			tx[j] = byte(i + j)
		}
		batch[i] = tx
	}
	return Message{Type: MsgTransaction, TxData: batch}
}

func benchmarkBroadcast(b *testing.B, peers int) {
	sender := benchFleet(b, peers, nil)
	msg := benchMessage()
	ctx := context.Background()
	// Warm-up pays first-dial costs outside the measurement.
	if err := sender.Broadcast(ctx, msg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Broadcast(ctx, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGossipBroadcastPooled{2,8}: persistent multiplexed
// connections with concurrent fan-out; cost should track the slowest
// peer, not the peer count.
func BenchmarkGossipBroadcastPooled8(b *testing.B) { benchmarkBroadcast(b, 8) }
func BenchmarkGossipBroadcastPooled2(b *testing.B) { benchmarkBroadcast(b, 2) }

func BenchmarkGossipRequestPooled(b *testing.B) {
	sender := benchFleet(b, 1, nil)
	peer := sender.Peers()[0]
	msg := benchMessage()
	ctx := context.Background()
	if _, err := sender.Request(ctx, peer, msg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sender.Request(ctx, peer, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGossipRequestMultiplexed drives many concurrent exchanges
// over one pooled connection — the multiplexing depth a full node's
// parallel inbound pipeline generates during sync.
func BenchmarkGossipRequestMultiplexed(b *testing.B) {
	sender := benchFleet(b, 1, func(n *TCPNetwork) { n.ioTO = 30 * time.Second })
	peer := sender.Peers()[0]
	msg := benchMessage()
	ctx := context.Background()
	if _, err := sender.Request(ctx, peer, msg); err != nil {
		b.Fatal(err)
	}
	const depth = 16
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		var wg sync.WaitGroup
		n := depth
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := sender.Request(ctx, peer, msg); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}
