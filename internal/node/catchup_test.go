package node_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// chainedTxs mines n data transactions from key, each approving the one
// before, rooted in the deployment's genesis.
func chainedTxs(t *testing.T, key *identity.KeyPair, n int) []*txn.Transaction {
	t.Helper()
	roots := tangle.GenesisTransactions(key.Public())
	trunk, branch := roots[0].ID(), roots[1].ID()
	txs := make([]*txn.Transaction, n)
	for i := range txs {
		payload := []byte(fmt.Sprintf("%064d", i)) // the benchmark's reading size
		txs[i] = craftTx(key, txn.KindData, payload, trunk, branch, time.Now(), testParams().MinDifficulty)
		trunk, branch = txs[i].ID(), trunk
	}
	return txs
}

// newTCPNode builds a gateway of mgrKey's deployment on a loopback TCP
// gossip endpoint.
func newTCPNode(t *testing.T, mgrKey *identity.KeyPair) (*node.FullNode, *gossip.TCPNetwork) {
	t.Helper()
	return newTCPNodeOn(t, mgrKey, func(n gossip.Network) gossip.Network { return n })
}

// journaledGateway is a gateway on loopback TCP that has replayed a
// journal of n chained transactions: the peer a catch-up pages.
func journaledGateway(t *testing.T, mgrKey *identity.KeyPair, n int) (*node.FullNode, *gossip.TCPNetwork) {
	t.Helper()
	fs := chaos.NewMemFS(3)
	writeJournal(t, fs, "gw.journal", chainedTxs(t, mgrKey, n)...)
	gateway, gwNet := newTCPNode(t, mgrKey)
	if _, err := gateway.EnablePersistenceFS(fs, "gw.journal"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gateway.ClosePersistence() })
	return gateway, gwNet
}

// sameLedger fails unless got holds exactly what want holds, in the same
// attachment order, and every encoding got keeps hashes to its ID.
func sameLedger(t *testing.T, got, want *tangle.Tangle) {
	t.Helper()
	wantIDs, wantEncs := want.EncodedRange(0, want.Size())
	gotIDs, gotEncs := got.EncodedRange(0, got.Size())
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("the relay holds %d transactions, the gateway %d", len(gotIDs), len(wantIDs))
	}
	for i, id := range gotIDs {
		if hashutil.Sum(gotEncs[i]) != id {
			t.Fatalf("entry %d of the relay's ledger does not hash to its ID %s", i, id.Short())
		}
		if id != wantIDs[i] || !bytes.Equal(gotEncs[i], wantEncs[i]) {
			t.Fatalf("entry %d of the relay's ledger is %s, the gateway's %s", i, id.Short(), wantIDs[i].Short())
		}
	}
}

// delayedNet holds every exchange for a while on the way out and on the
// way back, like a slow link, so the next page's reply is read while the
// page before it is admitted. It keeps the context, so a reply buffer the
// caller lends reaches the transport.
type delayedNet struct {
	gossip.Network
	delay time.Duration
}

func (d delayedNet) Request(ctx context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	time.Sleep(d.delay)
	reply, err := d.Network.Request(ctx, peer, msg)
	time.Sleep(d.delay)
	return reply, err
}

// TestCatchUpWithAPageInFlightAdmitsTheLedgerAsItIs: a fresh relay pages
// a 1 500-transaction gateway over TCP — six pages, one always in flight
// while the one before it is admitted, each read into one of the pager's
// two reply buffers — directly, through a delaying decorator, and through
// a fault injector that delays and drops exchanges. Directly and delayed
// one SyncAll brings the whole ledger; faulted, a dropped exchange ends
// the SyncAll, which is then repeated. Every transaction the relay admits
// hashes to its ID, and in the end its ledger is the gateway's, entry by
// entry, in the same order.
func TestCatchUpWithAPageInFlightAdmitsTheLedgerAsItIs(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gateway, gwNet := journaledGateway(t, mgrKey, 1500)
	var faulty *chaos.FaultyNetwork
	for _, tc := range []struct {
		name   string
		wrap   func(gossip.Network) gossip.Network
		rounds int // SyncAll calls allowed to bring the whole ledger
	}{
		{"direct", func(n gossip.Network) gossip.Network { return n }, 1},
		{"delayed", func(n gossip.Network) gossip.Network { return delayedNet{n, 2 * time.Millisecond} }, 1},
		{"faulty", func(n gossip.Network) gossip.Network {
			faulty = chaos.NewFaultyNetwork(n, chaos.NetFaults{DelayMax: 4 * time.Millisecond, DropProb: 0.25}, 11)
			return faulty
		}, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			relay, relayNet := newTCPNodeOn(t, mgrKey, tc.wrap)
			relayNet.AddPeer(gwNet.Self())
			for round := 0; relay.Tangle().Size() < gateway.Tangle().Size(); round++ {
				if round == tc.rounds {
					t.Fatalf("the relay holds %d of %d transactions after %d rounds", relay.Tangle().Size(), gateway.Tangle().Size(), round)
				}
				relay.SyncAll(context.Background())
				ids, encs := relay.Tangle().EncodedRange(0, relay.Tangle().Size())
				for i, id := range ids {
					if hashutil.Sum(encs[i]) != id {
						t.Fatalf("round %d: the relay admitted %s, whose bytes hash elsewhere", round, id.Short())
					}
				}
			}
			sameLedger(t, relay.Tangle(), gateway.Tangle())
		})
	}
	if dropped, _, delayed, _ := faulty.Counters(); dropped == 0 || delayed == 0 {
		t.Errorf("the fault injector dropped %d and delayed %d exchanges; the test wants both", dropped, delayed)
	}
}

// abandoningNet cancels the catch-up it serves at the third sync page:
// the exchange carries on to the gateway under a context that does not
// end — so its reply is read into the buffer the pager lent after the
// pager has given the exchange up — while the pager is told the context
// ended. It records every buffer lent.
type abandoningNet struct {
	gossip.Network
	cancel context.CancelFunc

	mu        sync.Mutex
	lent      []*gossip.ReplyBuffer
	abandoned *gossip.ReplyBuffer
	late      chan struct{}
}

func (a *abandoningNet) Request(ctx context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	buf := gossip.ReplyBufferOf(ctx)
	a.mu.Lock()
	a.lent = append(a.lent, buf)
	abandon := msg.Type == gossip.MsgSyncRequest && len(a.lent) == 3
	if abandon {
		a.abandoned = buf
	}
	a.mu.Unlock()
	if !abandon {
		return a.Network.Request(ctx, peer, msg)
	}
	go func() {
		defer close(a.late)
		_, _ = a.Network.Request(context.WithoutCancel(ctx), peer, msg)
	}()
	a.cancel()
	<-ctx.Done()
	return gossip.Message{}, ctx.Err()
}

// TestCancelledCatchUpNeverLendsTheAbandonedBufferAgain: a catch-up is
// cancelled with its third page in flight, whose reply still lands in the
// buffer the pager lent for it. No later exchange is lent that buffer, and
// the next catch-up brings the relay's ledger to the gateway's, every
// entry hashing to its ID.
func TestCancelledCatchUpNeverLendsTheAbandonedBufferAgain(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gateway, gwNet := journaledGateway(t, mgrKey, 1500)
	ctx, cancel := context.WithCancel(context.Background())
	net := &abandoningNet{cancel: cancel, late: make(chan struct{})}
	relay, relayNet := newTCPNodeOn(t, mgrKey, func(n gossip.Network) gossip.Network {
		net.Network = n
		return net
	})
	relayNet.AddPeer(gwNet.Self())

	relay.SyncAll(ctx)
	<-net.late // the abandoned page has been read into its buffer
	if net.abandoned == nil {
		t.Fatal("the catch-up ended before its third page")
	}
	if relay.Tangle().Size() >= gateway.Tangle().Size() {
		t.Fatal("the cancelled catch-up brought the whole ledger")
	}
	before := len(net.lent)
	relay.SyncAll(context.Background())
	for i, buf := range net.lent[before:] {
		if buf == nil {
			t.Fatalf("exchange %d after the cancellation was lent no buffer", before+i)
		}
		if buf == net.abandoned {
			t.Fatalf("exchange %d after the cancellation was lent the abandoned buffer", before+i)
		}
	}
	sameLedger(t, relay.Tangle(), gateway.Tangle())
}

// newTCPNodeOn is newTCPNode with the node's gossip going through
// wrap(the TCP endpoint).
func newTCPNodeOn(t *testing.T, mgrKey *identity.KeyPair, wrap func(gossip.Network) gossip.Network) (*node.FullNode, *gossip.TCPNetwork) {
	t.Helper()
	tcp, err := gossip.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.NewFull(node.FullConfig{
		Key: key, Role: identity.RoleGateway, ManagerPub: mgrKey.Public(),
		Credit: testParams(), Network: wrap(tcp),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close(); _ = tcp.Close() })
	return n, tcp
}
