package node_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// scriptedPeer is a gossip fabric with one peer whose sync replies come
// from a script; it records the cursor of every sync request it serves.
type scriptedPeer struct {
	serve   func(req gossip.Message) gossip.Message
	offsets []uint64
	scoped  []bool
	pages   int64 // replies the pager must count as consumed pages
}

func (p *scriptedPeer) Self() string                                    { return "self" }
func (p *scriptedPeer) Peers() []string                                 { return []string{"peer"} }
func (p *scriptedPeer) Broadcast(context.Context, gossip.Message) error { return nil }
func (p *scriptedPeer) SetHandler(gossip.Handler)                       {}
func (p *scriptedPeer) Close() error                                    { return nil }

func (p *scriptedPeer) Request(_ context.Context, _ string, msg gossip.Message) (gossip.Message, error) {
	if msg.Type != gossip.MsgSyncRequest {
		return gossip.Message{}, errors.New("scripted peer serves sync only")
	}
	p.offsets = append(p.offsets, msg.Offset)
	p.scoped = append(p.scoped, msg.Scoped && msg.Shard == 0)
	reply := p.serve(msg)
	reply.Type = gossip.MsgSyncResponse
	if reply.Total >= msg.Offset { // below the cursor is a rewind, not a page
		p.pages++
	}
	return reply, nil
}

// take returns and clears the cursors requested since the last call.
func (p *scriptedPeer) take() []uint64 {
	out := p.offsets
	p.offsets = nil
	return out
}

// TestSyncPagerScopes runs the same fake-peer cases through both scopes
// of the one sync pager: the whole ledger over Network (SyncAll) and
// namespace 0 over Backbone (Reconcile). The cursor a call starts from
// is the persisted one, so the offsets the peer sees pin both the
// in-call walk and what survived the previous call.
func TestSyncPagerScopes(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	strangerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}

	type step struct {
		serve func(req gossip.Message) gossip.Message
		want  []uint64 // cursors the peer must see during this sync call
	}
	fixed := func(next, total uint64, more bool) func(gossip.Message) gossip.Message {
		return func(gossip.Message) gossip.Message {
			return gossip.Message{Offset: next, Total: total, More: more}
		}
	}
	cases := []struct {
		name  string
		steps func(dirty []byte) []step
	}{
		{"total-below-cursor-rewinds", func([]byte) []step {
			shrunk := fixed(2, 2, false)
			return []step{
				{fixed(5, 5, false), []uint64{0}},
				{shrunk, []uint64{5, 0}},
				{shrunk, []uint64{2}},
			}
		}},
		{"dirty-page-pins-persisted-cursor", func(dirty []byte) []step {
			pages := func(req gossip.Message) gossip.Message {
				reply := gossip.Message{Offset: req.Offset + 1, Total: 3, More: req.Offset < 2}
				if req.Offset == 1 {
					reply.TxData = [][]byte{dirty}
				}
				return reply
			}
			return []step{
				{pages, []uint64{0, 1, 2}},
				{pages, []uint64{1, 2}},
			}
		}},
		{"no-forward-progress-bails", func([]byte) []step {
			stuck := func(req gossip.Message) gossip.Message {
				return gossip.Message{Offset: req.Offset, Total: 10, More: true}
			}
			return []step{{stuck, []uint64{0}}, {stuck, []uint64{0}}}
		}},
		{"more-false-stops", func([]byte) []step {
			return []step{
				{fixed(1, 10, false), []uint64{0}},
				{fixed(2, 10, false), []uint64{1}},
			}
		}},
	}

	scopes := []struct {
		name   string
		scoped bool
		attach func(cfg *node.FullConfig, net gossip.Network)
		sync   func(n *node.FullNode)
		pages  func(n *node.FullNode) int64
	}{
		{"whole-ledger-over-network", false,
			func(cfg *node.FullConfig, net gossip.Network) { cfg.Network = net },
			func(n *node.FullNode) { n.SyncAll(ctx) },
			func(n *node.FullNode) int64 { return n.Pipeline().SyncPages.Value() }},
		{"namespace-0-over-backbone", true,
			func(cfg *node.FullConfig, net gossip.Network) { cfg.Backbone = net },
			func(n *node.FullNode) { n.Reconcile(ctx) },
			func(n *node.FullNode) int64 { return n.CountersView().BackboneSyncPages.Value() }},
	}

	for _, sc := range scopes {
		for _, tc := range cases {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				peer := &scriptedPeer{}
				key, err := identity.Generate()
				if err != nil {
					t.Fatal(err)
				}
				cfg := node.FullConfig{
					Key:        key,
					Role:       identity.RoleGateway,
					ManagerPub: mgrKey.Public(),
					Credit:     testParams(),
					Clock:      clk,
				}
				sc.attach(&cfg, peer)
				n, err := node.NewFull(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = n.Close() })

				// A structurally valid reading from a key on no
				// authorization list: admission must fail, dirtying its page.
				g := genesisIDs(t, n)
				dirty := craftTx(strangerKey, txn.KindData, []byte("x"), g[0], g[1],
					clk.Now(), testParams().MinDifficulty).Encode()

				for i, st := range tc.steps(dirty) {
					peer.serve = st.serve
					sc.sync(n)
					got := peer.take()
					if !reflect.DeepEqual(got, st.want) {
						t.Fatalf("sync %d: peer saw cursors %v, want %v", i, got, st.want)
					}
				}
				for i, scoped := range peer.scoped {
					if scoped != sc.scoped {
						t.Errorf("request %d: scoped-to-namespace-0 = %v, want %v", i, scoped, sc.scoped)
					}
				}
				if got := sc.pages(n); got != peer.pages {
					t.Errorf("page counter = %d, want %d", got, peer.pages)
				}
			})
		}
	}
}

// TestPagersOfOneCursorTakeTurns: SyncAll calls that overlap page the one
// cursor in turn, so each after the first asks only past where the one
// before it left off, and no page is fetched twice. (The scripted peer
// records requests unsynchronized: pagers that overlapped would also be a
// race the detector reports.)
func TestPagersOfOneCursorTakeTurns(t *testing.T) {
	const pages, pagers = 3, 4
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	peer := &scriptedPeer{serve: func(req gossip.Message) gossip.Message {
		next := min(req.Offset+1, pages)
		return gossip.Message{Offset: next, Total: pages, More: next < pages}
	}}
	n, err := node.NewFull(node.FullConfig{
		Key: key, Role: identity.RoleGateway, ManagerPub: mgrKey.Public(),
		Credit: testParams(), Network: peer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })

	var wg sync.WaitGroup
	for i := 0; i < pagers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.SyncAll(context.Background())
		}()
	}
	wg.Wait()
	got := peer.take()
	slices.Sort(got)
	want := []uint64{0, 1, 2}
	for i := 1; i < pagers; i++ {
		want = append(want, pages)
	}
	if !slices.Equal(got, want) {
		t.Errorf("peer saw cursors %v, want %v: one pass over the pages, then each later pager at the end", got, want)
	}
}
