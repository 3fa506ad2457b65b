package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

type fixture struct {
	mgr    *node.Manager
	full   *node.FullNode
	client *Client
	srv    *httptest.Server
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	return newFixtureBehind(t, func(h http.Handler) http.Handler { return h })
}

// newFixtureBehind is newFixture with the device side reaching the server
// through wrap(handler) — a request counter, a lying gateway.
func newFixtureBehind(t testing.TB, wrap func(http.Handler) http.Handler) *fixture {
	t.Helper()
	return newFixtureWith(t, wrap, func(*node.FullConfig) {})
}

// newFixtureWith is newFixtureBehind with tune applied to the gateway's
// configuration before it is built.
func newFixtureWith(t testing.TB, wrap func(http.Handler) http.Handler, tune func(*node.FullConfig)) *fixture {
	t.Helper()
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	params.InitialDifficulty = 4
	params.MinDifficulty = 1
	params.MaxDifficulty = 20
	cfg := node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     params,
	}
	tune(&cfg)
	full, err := node.NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wrap(NewServer(full).Handler()))
	t.Cleanup(srv.Close)
	return &fixture{
		mgr:    mgr,
		full:   full,
		client: NewClient(srv.URL),
		srv:    srv,
	}
}

// authorizedDevice creates and authorizes a light node running over the
// RPC client.
func (f *fixture) authorizedDevice(t testing.TB) *node.LightNode {
	t.Helper()
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	f.mgr.AuthorizeDevice(key.Public(), key.BoxPublic())
	if _, err := f.mgr.PublishAuthorization(context.Background()); err != nil {
		t.Fatal(err)
	}
	light, err := node.NewLight(node.LightConfig{Key: key, Gateway: f.client})
	if err != nil {
		t.Fatal(err)
	}
	return light
}

func TestInfoEndpoint(t *testing.T) {
	f := newFixture(t)
	info, err := f.client.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "manager" {
		t.Errorf("role = %q", info.Role)
	}
	if info.Transactions != 2 { // genesis
		t.Errorf("transactions = %d", info.Transactions)
	}
	if info.Address != f.full.Address().Hex() {
		t.Error("address mismatch")
	}
}

func TestLightNodeOverRPCPostsReading(t *testing.T) {
	f := newFixture(t)
	dev := f.authorizedDevice(t)
	res, err := dev.PostReading(context.Background(), []byte("over-the-wire"))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := f.full.GetTransaction(res.Info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stored.Payload), "over-the-wire") {
		t.Error("payload not stored")
	}
}

func TestTipsEndpoint(t *testing.T) {
	f := newFixture(t)
	trunk, branch, err := f.client.TipsForApproval()
	if err != nil {
		t.Fatal(err)
	}
	if !f.full.Tangle().Contains(trunk) || !f.full.Tangle().Contains(branch) {
		t.Error("tips endpoint returned unknown transactions")
	}
}

func TestDifficultyAndCreditEndpoints(t *testing.T) {
	f := newFixture(t)
	dev := f.authorizedDevice(t)
	if d := f.client.DifficultyFor(dev.Address()); d != 4 {
		t.Errorf("difficulty = %d, want initial 4", d)
	}
	for i := 0; i < 8; i++ {
		if _, err := dev.PostReading(context.Background(), []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	cr, err := f.client.Credit(context.Background(), dev.Address())
	if err != nil {
		t.Fatal(err)
	}
	if cr.CrP <= 0 {
		t.Errorf("CrP = %v after activity", cr.CrP)
	}
	if d := f.client.DifficultyFor(dev.Address()); d > 4 {
		t.Errorf("difficulty rose for honest node: %d", d)
	}
}

func TestGetTransactionNotFound(t *testing.T) {
	f := newFixture(t)
	var missing [32]byte
	missing[0] = 0xAB
	_, err := f.client.GetTransaction(missing)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("err = %v, want 404 APIError", err)
	}
}

func TestSubmitUnauthorizedMapsToSentinel(t *testing.T) {
	f := newFixture(t)
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := node.NewLight(node.LightConfig{Key: key, Gateway: f.client})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rogue.PostReading(context.Background(), []byte("x"))
	if !errors.Is(err, node.ErrUnauthorizedDevice) {
		t.Errorf("err = %v, want ErrUnauthorizedDevice across the wire", err)
	}
}

func TestSubmitWrongDifficultyMapsToSentinel(t *testing.T) {
	f := newFixture(t)
	dev := f.authorizedDevice(t)
	// Build a transaction with insufficient PoW by hand.
	trunk, branch, err := f.client.TipsForApproval()
	if err != nil {
		t.Fatal(err)
	}
	tx := &txn.Transaction{
		Trunk:     trunk,
		Branch:    branch,
		Timestamp: time.Now(),
		Kind:      txn.KindData,
		Payload:   []byte("weak"),
	}
	tx.Sign(dev.Key())
	// Find a nonce that does NOT meet difficulty 4.
	for n := uint64(0); ; n++ {
		if !txn.PowDigest(trunk, branch, n).MeetsDifficulty(4) {
			tx.Nonce = n
			break
		}
	}
	_, err = f.client.Submit(context.Background(), tx)
	if !errors.Is(err, node.ErrWrongDifficulty) {
		t.Errorf("err = %v, want ErrWrongDifficulty", err)
	}
}

func TestSubmitDuplicateMapsToSentinel(t *testing.T) {
	f := newFixture(t)
	dev := f.authorizedDevice(t)
	trunk, branch, err := f.client.TipsForApproval()
	if err != nil {
		t.Fatal(err)
	}
	tx := &txn.Transaction{
		Trunk:     trunk,
		Branch:    branch,
		Timestamp: time.Now(),
		Kind:      txn.KindData,
		Payload:   []byte("dup"),
	}
	tx.Sign(dev.Key())
	w := &pow.Worker{}
	if _, err := w.Attach(context.Background(), tx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.Submit(context.Background(), tx); err != nil {
		t.Fatal(err)
	}
	_, err = f.client.Submit(context.Background(), tx)
	if !errors.Is(err, tangle.ErrDuplicate) {
		t.Errorf("err = %v, want ErrDuplicate", err)
	}
}

func TestTransactionsByKindOverRPC(t *testing.T) {
	f := newFixture(t)
	dev := f.authorizedDevice(t)
	for i := 0; i < 3; i++ {
		if _, err := dev.PostReading(context.Background(), []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	page, err := f.client.TransactionsByKind(txn.KindData, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 3 {
		t.Errorf("page = %d", len(page))
	}
	page2, err := f.client.TransactionsByKind(txn.KindData, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2) != 1 {
		t.Errorf("offset page = %d", len(page2))
	}
	// Authorization list also visible by kind.
	auth, err := f.client.TransactionsByKind(txn.KindAuthorization, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(auth) != 1 {
		t.Errorf("auth page = %d", len(auth))
	}
}

func TestBadRequests(t *testing.T) {
	f := newFixture(t)
	paths := []string{
		"/api/v1/difficulty",                   // missing address
		"/api/v1/difficulty?address=zz",        // bad hex
		"/api/v1/credit?address=abcd",          // short hex
		"/api/v1/transactions?kind=99",         // bad kind
		"/api/v1/transactions?kind=1&offset=x", // bad offset
		"/api/v1/transactions/nothex",          // bad id
	}
	for _, p := range paths {
		resp, err := http.Get(f.srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", p, resp.StatusCode, body.Error)
		}
	}

	// A submission body past the cap is refused, not buffered whole.
	huge := `{"raw":"` + strings.Repeat("A", 2*maxSubmitBody) + `"}`
	resp, err := http.Post(f.srv.URL+"/api/v1/transactions", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submission: status %d, want 413", resp.StatusCode)
	}
}

func TestSubmitMalformedBody(t *testing.T) {
	f := newFixture(t)
	for _, body := range []string{"{not json", `{"raw":"!!!"}`, `{"raw":"aGVsbG8="}`} {
		resp, err := http.Post(f.srv.URL+"/api/v1/transactions", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", body, resp.StatusCode)
		}
	}
}

func TestServerStartAndClose(t *testing.T) {
	f := newFixture(t)
	srv := NewServer(f.full)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	c := NewClient("http://" + addr)
	if _, err := c.Info(context.Background()); err != nil {
		t.Fatalf("info over real listener: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(context.Background()); err == nil {
		t.Error("info succeeded after close")
	}
}

func TestEventsEndpoint(t *testing.T) {
	f := newFixture(t)
	dev := f.authorizedDevice(t)

	// No events yet.
	evs, err := f.client.Events(context.Background(), dev.Address())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs.Events) != 0 {
		t.Fatalf("events = %v", evs.Events)
	}

	// Record a punishment directly and read it back over the wire.
	f.full.Engine().Ledger().RecordMalicious(dev.Address(), core.EventRecord{
		Behaviour: core.BehaviourDoubleSpend,
		At:        time.Now(),
		Detail:    "test event",
	})
	evs, err = f.client.Events(context.Background(), dev.Address())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs.Events) != 1 || evs.Events[0].Behaviour != "double-spend" {
		t.Errorf("events = %+v", evs.Events)
	}
	if evs.Events[0].Detail != "test event" {
		t.Errorf("detail = %q", evs.Events[0].Detail)
	}
}

func TestEventsEndpointBadRequest(t *testing.T) {
	f := newFixture(t)
	for _, p := range []string{"/api/v1/events", "/api/v1/events?address=zz"} {
		resp, err := http.Get(f.srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", p, resp.StatusCode)
		}
	}
}
