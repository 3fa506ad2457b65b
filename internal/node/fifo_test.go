package node_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
)

// TestWindowedSenderKeepsPairOrder drives per-pair FIFO end to end: one
// peer sender with a window of batches in flight, a chain in which every
// transaction approves the one before it, one transaction per batch, and
// a relay on the other side, over the in-memory bus and over loopback
// TCP.
//
// What is pinned exactly: every transaction of every chain attaches on
// the relay by the time the sender's flush returns, and no sync was
// needed to get it there. What is pinned as a bound: how many batches
// were handled before their parent's. The transports keep a pair's
// batches in the order their Requests began (the gossip package pins
// that exactly, TestTCPPairOrderFollowsRequestStart and its bus twin),
// and the sender hands batches out in queue order, each once the
// previous one's worker is running. But gossip.Network is a blocking
// Request: the sender cannot learn that a request has taken its place,
// and a worker preempted between reporting and entering Request waits
// in the scheduler's global queue while its successors — up to a few
// dozen — go by. That happens about once in ten thousand launches on
// two busy cores; the relay absorbs it by parking the early children
// until the late batch lands, at one Quarantined each. A window of 32
// gives it more workers to preempt: three runs on two cores, on real
// time, read 2–35 (bus) and 0–13 (tcp) early batches of 10 000 (two at a
// window of 8: 1–10 and 0–1), still far inside the bound.
func TestWindowedSenderKeepsPairOrder(t *testing.T) {
	const (
		iterations = 50
		chain      = 200
		// A handful of incidents, dozens of early batches each, is the
		// expected worst on a loaded machine. Delivery without a per-pair
		// order (a goroutine per frame) handles a fifth of a chain like
		// this early, and every one of them used to cost a sync.
		maxOvertakes = iterations * chain / 20
	)
	transports := map[string]func(t *testing.T) (sender, relay gossip.Network){
		"bus": func(t *testing.T) (gossip.Network, gossip.Network) {
			bus := gossip.NewBus()
			a, err := bus.Join("sender")
			if err != nil {
				t.Fatal(err)
			}
			b, err := bus.Join("relay")
			if err != nil {
				t.Fatal(err)
			}
			return a, b
		},
		"tcp": func(t *testing.T) (gossip.Network, gossip.Network) {
			a, err := gossip.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			b, err := gossip.ListenTCP("127.0.0.1:0")
			if err != nil {
				_ = a.Close()
				t.Fatal(err)
			}
			a.AddPeer(b.Self())
			return a, b
		},
	}
	for name, connect := range transports {
		run := func(t *testing.T) {
			overtakes := int64(0)
			for it := 0; it < iterations; it++ {
				overtakes += runChain(t, connect, chain, it)
			}
			t.Logf("%d of %d batches were handled before their parent's", overtakes, iterations*chain)
			if overtakes > maxOvertakes {
				t.Errorf("%d of %d batches were handled before their parent's, want at most %d",
					overtakes, iterations*chain, maxOvertakes)
			}
		}
		t.Run(name, func(t *testing.T) {
			if name == "tcp" {
				run(t) // loopback TCP never blocks durably: real time
				return
			}
			inBubble(t, run)
		})
	}
}

// runChain sends one chain through a fresh sender and relay and returns
// how many of its batches the relay had to park.
func runChain(t *testing.T, connect func(*testing.T) (gossip.Network, gossip.Network), chain, iteration int) (overtakes int64) {
	t.Helper()
	ctx := context.Background()
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	relayKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	senderNet, relayNet := connect(t)
	defer func() { _ = senderNet.Close(); _ = relayNet.Close() }()

	relay, err := node.NewFull(node.FullConfig{
		Key:        relayKey,
		Role:       identity.RoleGateway,
		ManagerPub: mgrKey.Public(),
		Credit:     testParams(),
		Network:    relayNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	sender, err := node.NewFull(node.FullConfig{
		Key:        mgrKey,
		Role:       identity.RoleManager,
		ManagerPub: mgrKey.Public(),
		Credit:     testParams(),
		Network:    senderNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender.SetBroadcastBounds(0, 1) // one transaction per batch: order is all that holds the chain together
	defer sender.Close()

	// The sender's only tip is the transaction just submitted, so each
	// one approves its predecessor: a chain.
	for i := 0; i < chain; i++ {
		if _, err := sender.Submit(ctx, mineOwnTx(t, sender, fmt.Sprintf("chain-%d-%d", iteration, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.FlushBroadcast(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := relay.Tangle().Size(), sender.Tangle().Size(); got != want {
		t.Fatalf("iteration %d: relay holds %d transactions after the flush, sender %d (%d parked)",
			iteration, got, want, relay.QuarantineLen())
	}
	if syncs := relay.Pipeline().OrphanSyncs.Value(); syncs != 0 {
		t.Fatalf("iteration %d: %d orphan syncs; an overtaken batch must repair itself", iteration, syncs)
	}
	return relay.CountersView().Quarantined.Value()
}
