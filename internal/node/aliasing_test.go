package node_test

import (
	"bytes"
	"context"
	"fmt"
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

// scribble overwrites every byte slice of tx in place.
func scribble(tx *txn.Transaction) {
	for _, field := range [][]byte{tx.Issuer, tx.Payload, tx.Signature} {
		for i := range field {
			field[i] = 0xFF
		}
	}
}

// TestLedgerBytesSurviveTheirCallers: a ledger keeps each transaction as
// bytes it shares with whoever attached it, and hands out transactions
// built over those bytes, so the bytes must be out of every caller's
// reach. A submitter overwrites its transaction once Submit has returned;
// the relay's copies arrived in pooled TCP frames that a second wave of
// traffic has since reused; every transaction Get, TransactionsByKind and
// ExportRange hand out is overwritten too. On both nodes each stored
// encoding must still hash to the ID it is filed under, and a second Get
// must return the transaction as it was submitted. (Run under -race: a slice that reached
// the ledger's bytes would also race the broadcaster reading them.)
func TestLedgerBytesSurviveTheirCallers(t *testing.T) {
	ctx := context.Background()
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	relayKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	senderNet, err := gossip.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer senderNet.Close()
	relayNet, err := gossip.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relayNet.Close()
	senderNet.AddPeer(relayNet.Self())

	relay, err := node.NewFull(node.FullConfig{
		Key: relayKey, Role: identity.RoleGateway, ManagerPub: mgrKey.Public(),
		Credit: testParams(), Network: relayNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	sender, err := node.NewFull(node.FullConfig{
		Key: mgrKey, Role: identity.RoleManager, ManagerPub: mgrKey.Public(),
		Credit: testParams(), Network: senderNet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Two waves: the frames that carried the first are back in the pool,
	// and taken out again, by the time the second has been acknowledged.
	const wave = 24
	type submitted struct {
		id                         hashutil.Hash
		issuer, payload, signature []byte
	}
	var want []submitted
	for i := 0; i < 2*wave; i++ {
		tx := mineOwnTx(t, sender, fmt.Sprintf("reading-%d", i))
		want = append(want, submitted{tx.ID(), bytes.Clone(tx.Issuer), bytes.Clone(tx.Payload), bytes.Clone(tx.Signature)})
		if _, err := sender.Submit(ctx, tx); err != nil {
			t.Fatal(err)
		}
		scribble(tx)
		if i == wave-1 || i == 2*wave-1 {
			if err := sender.FlushBroadcast(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	for name, n := range map[string]*node.FullNode{"sender": sender, "relay": relay} {
		tg := n.Tangle()
		if got := tg.Size(); got != 2+len(want) {
			t.Fatalf("%s holds %d transactions, want %d", name, got, 2+len(want))
		}
		for _, w := range want {
			first, err := tg.Get(w.id)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			scribble(first)
		}
		byKind, err := n.TransactionsByKind(txn.KindData, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tx := range byKind {
			scribble(tx)
		}
		for _, tx := range tg.ExportRange(0, tg.Size()) {
			scribble(tx)
		}
		for _, w := range want {
			enc, err := tg.Encoded(w.id)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if hashutil.Sum(enc) != w.id {
				t.Errorf("%s: the stored encoding of %s no longer hashes to it", name, w.id.Short())
			}
			again, err := tg.Get(w.id)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if again.ID() != w.id || again.VerifyBasic() != nil || !bytes.Equal(again.Issuer, w.issuer) ||
				!bytes.Equal(again.Payload, w.payload) || !bytes.Equal(again.Signature, w.signature) {
				t.Errorf("%s: a second Get of %s is not the transaction that was submitted", name, w.id.Short())
			}
		}
	}
}

// TestBulkEdgesKeepTheirOwnBytes: what a relay batch, a sync page or a
// journal replay attaches is the ledger's own copy. Each edge is fed from
// buffers the test owns — the batch's and the page's entries, the journal
// file — which are overwritten once the edge has returned; every stored
// encoding must still be the transaction's, and hash to the ID it is filed
// under. (The journal's records are read one after another, so a view left
// over the reader's reused buffer would also show here.)
func TestBulkEdgesKeepTheirOwnBytes(t *testing.T) {
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	roots := tangle.GenesisTransactions(mgrKey.Public())
	trunk, branch := roots[0].ID(), roots[1].ID()
	txs := make([]*txn.Transaction, 40)
	for i := range txs {
		txs[i] = craftTx(mgrKey, txn.KindData, []byte(fmt.Sprintf("reading-%d", i)), trunk, branch, time.Now(), testParams().MinDifficulty)
		trunk, branch = txs[i].ID(), trunk
	}
	// owned returns fresh copies of the encodings, for the edge to read.
	owned := func() [][]byte {
		out := make([][]byte, len(txs))
		for i, tx := range txs {
			out[i] = bytes.Clone(tx.Encode())
		}
		return out
	}
	overwrite := func(bufs ...[]byte) {
		for _, b := range bufs {
			for i := range b {
				b[i] = 0xFF
			}
		}
	}
	check := func(t *testing.T, n *node.FullNode) {
		t.Helper()
		for _, tx := range txs {
			enc, err := n.Tangle().Encoded(tx.ID())
			if err != nil {
				t.Fatal(err)
			}
			if hashutil.Sum(enc) != tx.ID() || !bytes.Equal(enc, tx.Encode()) {
				t.Fatalf("the stored encoding of %s changed with its source buffer", tx.ID().Short())
			}
		}
	}

	t.Run("relay-batch", func(t *testing.T) {
		net := &scriptedNet{}
		relay := newRelay(t, mgrKey, net)
		wire := owned()
		if _, err := net.handler.HandleGossip("peer", gossip.Message{Type: gossip.MsgTransaction, TxData: wire}); err != nil {
			t.Fatal(err)
		}
		overwrite(wire...)
		check(t, relay)
	})
	t.Run("sync-page", func(t *testing.T) {
		net := &scriptedNet{peers: []string{"peer"}}
		relay := newRelay(t, mgrKey, net)
		page := owned()
		net.serve = func(string, gossip.Message) (gossip.Message, error) {
			return gossip.Message{Type: gossip.MsgSyncResponse, TxData: page, Offset: uint64(len(page)), Total: uint64(len(page))}, nil
		}
		relay.SyncAll(context.Background())
		overwrite(page...)
		check(t, relay)
	})
	t.Run("replay-run", func(t *testing.T) {
		fs := chaos.NewMemFS(3)
		writeJournal(t, fs, "gw.journal", txs...)
		relay := newRelay(t, mgrKey, &scriptedNet{})
		if _, err := relay.EnablePersistenceFS(fs, "gw.journal"); err != nil {
			t.Fatal(err)
		}
		if err := relay.ClosePersistence(); err != nil {
			t.Fatal(err)
		}
		file, err := fs.ReadFile("gw.journal")
		if err != nil {
			t.Fatal(err)
		}
		overwrite(file)
		fs.WriteFile("gw.journal", file)
		check(t, relay)
	})
}
