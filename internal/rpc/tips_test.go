package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// wire sits between the device and the fixture's server: it counts the
// exchanges by endpoint and lets a test decide what a tips request is
// answered with.
type wire struct {
	mu     sync.Mutex
	counts map[string]int
	// tips, when set, answers GET /api/v1/tips; serve asks the real
	// server (as often as the hook likes) and decodes what it said.
	tips func(serve func() TipsResponse) TipsResponse
}

func (w *wire) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		endpoint := r.Method + " " + r.URL.Path
		if strings.HasPrefix(r.URL.Path, "/api/v1/transactions/") {
			endpoint = "GET one transaction"
		}
		w.mu.Lock()
		w.counts[endpoint]++
		hook := w.tips
		w.mu.Unlock()
		if r.URL.Path != "/api/v1/tips" || hook == nil {
			next.ServeHTTP(rw, r)
			return
		}
		out := hook(func() TipsResponse {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var resp TipsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				panic(fmt.Sprintf("tips response %q: %v", rec.Body.Bytes(), err))
			}
			return resp
		})
		writeJSON(rw, http.StatusOK, out)
	})
}

// take returns the counts since the last take.
func (w *wire) take() map[string]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.counts
	w.counts = map[string]int{}
	return out
}

func (w *wire) setTips(hook func(serve func() TipsResponse) TipsResponse) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tips = hook
}

func newWiredFixture(t testing.TB) (*fixture, *wire) {
	w := &wire{counts: map[string]int{}}
	return newFixtureBehind(t, w.wrap), w
}

// pinnedTips names one fixed parent, so that two postings through it
// fork the tangle into two tips.
type pinnedTips struct {
	node.Gateway
	parent hashutil.Hash
}

func (p pinnedTips) TipsForApproval() (hashutil.Hash, hashutil.Hash, error) {
	return p.parent, p.parent, nil
}

// fork leaves the ledger with exactly two tips.
func (f *fixture) fork(t *testing.T, key *identity.KeyPair) {
	t.Helper()
	tips := f.full.Tangle().Tips()
	if len(tips) != 1 {
		t.Fatalf("fork wants one tip to start from, have %d", len(tips))
	}
	forker, err := node.NewLight(node.LightConfig{Key: key, Gateway: pinnedTips{f.full, tips[0]}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := forker.PostReading(context.Background(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(f.full.Tangle().Tips()); got != 2 {
		t.Fatalf("fork left %d tips", got)
	}
}

var threeExchanges = map[string]int{
	"GET /api/v1/tips":          1,
	"GET /api/v1/difficulty":    1,
	"POST /api/v1/transactions": 1,
}

// TestPostReadingIsThreeExchanges: tips, difficulty, submit — the tip
// bodies ride with their names, whether the two tips are one or two.
func TestPostReadingIsThreeExchanges(t *testing.T) {
	f, w := newWiredFixture(t)
	dev := f.authorizedDevice(t)
	ctx := context.Background()

	w.take()
	if _, err := dev.PostReading(ctx, []byte("trunk = branch")); err != nil {
		t.Fatal(err)
	}
	if got := w.take(); !maps.Equal(got, threeExchanges) {
		t.Errorf("one tip: exchanges = %v, want %v", got, threeExchanges)
	}

	f.fork(t, dev.Key())
	if got := postOnTwoTips(t, w, dev); !maps.Equal(got, threeExchanges) {
		t.Errorf("two tips: exchanges = %v, want %v", got, threeExchanges)
	}
}

// postOnTwoTips posts a reading through a tips response that names both
// of the ledger's two tips and returns the exchanges it cost.
func postOnTwoTips(t *testing.T, w *wire, dev *node.LightNode) map[string]int {
	t.Helper()
	distinct := false
	w.setTips(func(serve func() TipsResponse) TipsResponse {
		// Tip selection is random; ask until it names both tips.
		for i := 0; i < 1000; i++ {
			if resp := serve(); resp.Trunk != resp.Branch {
				distinct = true
				return resp
			}
		}
		return serve()
	})
	w.take()
	if _, err := dev.PostReading(context.Background(), []byte("trunk != branch")); err != nil {
		t.Fatal(err)
	}
	if !distinct {
		t.Fatal("tip selection never named two distinct tips of two")
	}
	return w.take()
}

// minedOn mines readings on one fixed parent and keeps them instead of
// submitting them.
type minedOn struct {
	pinnedTips
	mined []*txn.Transaction
}

func (m *minedOn) Submit(_ context.Context, t *txn.Transaction) (tangle.Info, error) {
	m.mined = append(m.mined, t)
	return tangle.Info{ID: t.ID()}, nil
}

// TestTipsOfOneSlotAreThreeExchanges: a trunk and a branch whose IDs file
// under one slot of the tip cache (their first two bytes agree modulo
// tipCacheSize) still cost a reading three exchanges — the cache keeps
// both bodies of one tips response.
func TestTipsOfOneSlotAreThreeExchanges(t *testing.T) {
	f, w := newWiredFixture(t)
	dev := f.authorizedDevice(t)
	tips := f.full.Tangle().Tips()
	if len(tips) != 1 {
		t.Fatalf("want one tip to mine on, have %d", len(tips))
	}
	miner := &minedOn{pinnedTips: pinnedTips{f.full, tips[0]}}
	forker, err := node.NewLight(node.LightConfig{Key: dev.Key(), Gateway: miner})
	if err != nil {
		t.Fatal(err)
	}
	slot := func(id hashutil.Hash) int { return int(binary.BigEndian.Uint16(id[:]) % tipCacheSize) }
	var pair []*txn.Transaction
	bySlot := map[int]*txn.Transaction{}
	for i := 0; pair == nil; i++ {
		if _, err := forker.PostReading(context.Background(), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		tx := miner.mined[len(miner.mined)-1]
		if prev, ok := bySlot[slot(tx.ID())]; ok {
			pair = []*txn.Transaction{prev, tx}
		}
		bySlot[slot(tx.ID())] = tx
	}
	for _, tx := range pair {
		if _, err := f.full.Submit(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := postOnTwoTips(t, w, dev); !maps.Equal(got, threeExchanges) {
		t.Errorf("exchanges = %v, want %v", got, threeExchanges)
	}
}

// TestTipsCarryTheStoredBytes: what tips sends for an ID is byte for byte
// what transactions/{id} sends for it, and what the ledger holds.
func TestTipsCarryTheStoredBytes(t *testing.T) {
	f := newFixture(t)
	dev := f.authorizedDevice(t)
	f.fork(t, dev.Key())
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		var tips TipsResponse
		if err := f.client.get(ctx, "/api/v1/tips", "", &tips); err != nil {
			t.Fatal(err)
		}
		if tips.Trunk == tips.Branch {
			if tips.BranchRaw != nil {
				t.Fatal("branch_raw sent although branch = trunk")
			}
			continue
		}
		for _, tip := range []struct {
			id  string
			raw []byte
		}{{tips.Trunk, tips.TrunkRaw}, {tips.Branch, tips.BranchRaw}} {
			var one TxResponse
			if err := f.client.get(ctx, "/api/v1/transactions/"+tip.id, "", &one); err != nil {
				t.Fatal(err)
			}
			id, err := hashutil.FromHex(tip.id)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := f.full.Tangle().Encoded(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tip.raw, one.Raw) || !bytes.Equal(tip.raw, stored) {
				t.Errorf("tip %s: tips sent %d bytes, transactions/{id} %d, ledger holds %d; want identical",
					id.Short(), len(tip.raw), len(one.Raw), len(stored))
			}
			if hashutil.Sum(tip.raw) != id {
				t.Errorf("tip %s: body does not hash to its ID", id.Short())
			}
		}
		return
	}
	t.Fatal("tip selection never named two distinct tips of two")
}

// TestMismatchedTipBodyIsNotCached: a body that does not hash to the ID
// it came under is dropped, and the tip is fetched and validated over the
// network as if no body had been sent.
func TestMismatchedTipBodyIsNotCached(t *testing.T) {
	f, w := newWiredFixture(t)
	dev := f.authorizedDevice(t)
	lists, err := f.full.TransactionsByKind(txn.KindAuthorization, 0)
	if err != nil {
		t.Fatal(err)
	}
	decoy := lists[0]
	if _, err := dev.PostReading(context.Background(), []byte("so that the tip is not the decoy")); err != nil {
		t.Fatal(err)
	}
	w.setTips(func(serve func() TipsResponse) TipsResponse {
		resp := serve()
		resp.TrunkRaw = decoy.Encode() // well signed, but not what resp.Trunk names
		return resp
	})
	w.take()
	if _, err := dev.PostReading(context.Background(), []byte("lied to")); err != nil {
		t.Fatalf("a mismatched body must cost a fetch, not the reading: %v", err)
	}
	want := map[string]int{"GET one transaction": 1}
	for k, v := range threeExchanges {
		want[k] = v
	}
	if got := w.take(); !maps.Equal(got, want) {
		t.Errorf("exchanges = %v, want %v", got, want)
	}
}

// TestTipsWithoutBodiesStillWork: against a gateway that names its tips
// and no more (any build before the bodies were added) the device fetches
// each, as it always did.
func TestTipsWithoutBodiesStillWork(t *testing.T) {
	f, w := newWiredFixture(t)
	dev := f.authorizedDevice(t)
	w.setTips(func(serve func() TipsResponse) TipsResponse {
		resp := serve()
		return TipsResponse{Trunk: resp.Trunk, Branch: resp.Branch}
	})
	w.take()
	res, err := dev.PostReading(context.Background(), []byte("over-the-old-wire"))
	if err != nil {
		t.Fatal(err)
	}
	if !f.full.Tangle().Contains(res.Info.ID) {
		t.Error("reading not attached")
	}
	if got := w.take(); got["GET one transaction"] != 1 {
		t.Errorf("exchanges = %v, want one transaction fetch", got)
	}
}

// TestTipCacheStaysWithinItsSize: ten times more distinct tips than slots
// leave at most tipCacheSize entries, and a lookup answers with the
// transaction asked for or not at all.
func TestTipCacheStaysWithinItsSize(t *testing.T) {
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var cache tipCache
	var ids []hashutil.Hash
	for i := 0; i < 10*tipCacheSize; i++ {
		tx := &txn.Transaction{
			Trunk:     hashutil.Sum([]byte("trunk")),
			Branch:    hashutil.Sum([]byte("branch")),
			Timestamp: time.Unix(1_700_000_000, int64(i)).UTC(),
			Kind:      txn.KindData,
			Payload:   []byte{byte(i), byte(i >> 8)},
		}
		tx.Sign(key)
		cache.admit(tx.ID(), tx.Encode())
		ids = append(ids, tx.ID())
	}
	held := 0
	for i := range cache.slots {
		if cache.slots[i].Load() != nil {
			held++
		}
	}
	hits := 0
	for _, id := range ids {
		if got := cache.get(id); got != nil {
			hits++
			if got.ID() != id {
				t.Fatalf("asked for %s, cache answered %s", id.Short(), got.ID().Short())
			}
		}
	}
	if held > tipCacheSize || hits != held {
		t.Errorf("%d entries held, %d of %d lookups hit; want at most %d held and as many hits",
			held, hits, len(ids), tipCacheSize)
	}
}

// TestSessionsShareOneClient: many device sessions post through a single
// Client (as the benchmark's 512 devices do) — the tip cache under the
// race detector.
func TestSessionsShareOneClient(t *testing.T) {
	f, w := newWiredFixture(t)
	const sessions, readings = 8, 12
	devs := make([]*node.LightNode, sessions)
	for i := range devs {
		devs[i] = f.authorizedDevice(t)
	}
	w.take()
	var wg sync.WaitGroup
	for _, dev := range devs {
		wg.Add(1)
		go func(dev *node.LightNode) {
			defer wg.Done()
			for i := 0; i < readings; i++ {
				if _, err := dev.PostReading(context.Background(), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(dev)
	}
	wg.Wait()
	got := w.take()
	// A retried submission (tips re-orged under it) repeats all three
	// exchanges; a slot overwritten between a session's tips call and its
	// validation costs that session one fetch. Neither may be the rule.
	if fetched := got["GET one transaction"]; fetched > sessions*readings/4 {
		t.Errorf("%d tip fetches in %d readings: the cache is not serving the sessions (%v)", fetched, sessions*readings, got)
	}
}
