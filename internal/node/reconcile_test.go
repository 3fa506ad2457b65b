package node_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
)

// TestCreditPagerCrossesPages: a backbone peer holds credit for more
// accounts than one digest page carries (64). One Reconcile pages the
// whole digest — the peer sees credit offsets 0, 64 and 128 — and merges
// every account.
func TestCreditPagerCrossesPages(t *testing.T) {
	const accounts = 150
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	newGateway := func(backbone gossip.Network) *node.FullNode {
		t.Helper()
		key, err := identity.Generate()
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.NewFull(node.FullConfig{
			Key: key, Role: identity.RoleGateway, ManagerPub: mgrKey.Public(),
			Credit: testParams(), Backbone: backbone,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}

	// The peer's backbone only captures its handler; the gateway's serves
	// every request through it and records the credit offsets asked for.
	peerNet := &scriptedNet{}
	peer := newGateway(peerNet)
	now := time.Now()
	addrs := make([]identity.Address, accounts)
	for i := range addrs {
		addrs[i] = hashutil.Sum([]byte(fmt.Sprintf("account %d", i)))
		peer.Engine().Ledger().RecordTransaction(addrs[i], hashutil.Sum([]byte(fmt.Sprintf("tx %d", i))), 1, now)
	}
	var offsets []uint64 // credit requests run on Reconcile's own goroutine
	gwNet := &scriptedNet{peers: []string{"peer"}}
	gwNet.serve = func(_ string, msg gossip.Message) (gossip.Message, error) {
		if msg.Type == gossip.MsgCreditRequest {
			offsets = append(offsets, msg.Offset)
		}
		peerNet.mu.Lock()
		h := peerNet.handler
		peerNet.mu.Unlock()
		reply, err := h.HandleGossip("gateway", msg)
		if err != nil {
			return gossip.Message{}, err
		}
		return *reply, nil
	}
	gw := newGateway(gwNet)

	gw.Reconcile(context.Background())
	if want := []uint64{0, 64, 128}; !reflect.DeepEqual(offsets, want) {
		t.Errorf("the peer saw credit offsets %v, want %v", offsets, want)
	}
	if got := gw.CountersView().CreditTxsMerged.Value(); got != accounts {
		t.Errorf("CreditTxsMerged = %d, want %d", got, accounts)
	}
	for i, addr := range addrs {
		if cr := gw.Engine().Ledger().CreditOf(addr, now); cr.CrP <= 0 {
			t.Fatalf("account %d was not merged: CrP = %v", i, cr.CrP)
		}
	}
}
