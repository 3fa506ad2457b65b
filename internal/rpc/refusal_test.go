package rpc

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// TestSubmitRefusalsOverRPC drives each way a gateway refuses a device's
// submission through rpc.Client, and checks that the device gets the
// refusal's HTTP status and, where it has one, the node's sentinel error.
// A transaction no node admits — a bad signature, a structure the rule
// refuses — is the device's fault, so it is a 400, not the 500 of a fault
// in the node. The gateway's clock stands still, so the rate limit's
// window never closes mid-test; every row signs with a key of its own.
func TestSubmitRefusalsOverRPC(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	f := newFixtureWith(t, func(h http.Handler) http.Handler { return h }, func(cfg *node.FullConfig) {
		cfg.Clock = clk
		cfg.RateLimit = 2
	})
	trunk, branch, err := f.client.TipsForApproval()
	if err != nil {
		t.Fatal(err)
	}
	// data is a data transaction on the gateway's tips.
	data := func(payload string) *txn.Transaction {
		return &txn.Transaction{Trunk: trunk, Branch: branch, Timestamp: clk.Now(), Kind: txn.KindData, Payload: []byte(payload)}
	}
	// mined signs tx with key and mines it to what the gateway demands of key.
	mined := func(t *testing.T, key *identity.KeyPair, tx *txn.Transaction) *txn.Transaction {
		t.Helper()
		tx.Sign(key)
		if _, err := (&pow.Worker{}).Attach(context.Background(), tx, f.client.DifficultyFor(key.Address())); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	admit := func(t *testing.T, tx *txn.Transaction) {
		t.Helper()
		if _, err := f.client.Submit(context.Background(), tx); err != nil {
			t.Fatalf("setup submission refused: %v", err)
		}
	}
	rows := []struct {
		name   string
		build  func(t *testing.T, key *identity.KeyPair) *txn.Transaction
		status int
		want   error // nil: the status alone carries the refusal
	}{
		{
			name:   "unauthorized device",
			build:  func(t *testing.T, _ *identity.KeyPair) *txn.Transaction { return mined(t, mustKey(t), data("sybil")) },
			status: http.StatusForbidden,
			want:   node.ErrUnauthorizedDevice,
		},
		{
			name: "rate limited",
			build: func(t *testing.T, key *identity.KeyPair) *txn.Transaction {
				admit(t, mined(t, key, data("first")))
				admit(t, mined(t, key, data("second")))
				return mined(t, key, data("third"))
			},
			status: http.StatusTooManyRequests,
			want:   node.ErrRateLimited,
		},
		{
			name: "proof of work below the demand",
			build: func(t *testing.T, key *identity.KeyPair) *txn.Transaction {
				tx := data("weak")
				tx.Sign(key)
				for txn.PowDigest(trunk, branch, tx.Nonce).MeetsDifficulty(f.client.DifficultyFor(key.Address())) {
					tx.Nonce++
				}
				return tx
			},
			status: http.StatusPreconditionFailed,
			want:   node.ErrWrongDifficulty,
		},
		{
			name: "duplicate",
			build: func(t *testing.T, key *identity.KeyPair) *txn.Transaction {
				tx := mined(t, key, data("twice"))
				admit(t, tx)
				return tx
			},
			status: http.StatusConflict,
			want:   tangle.ErrDuplicate,
		},
		{
			name: "unknown parent",
			build: func(t *testing.T, key *identity.KeyPair) *txn.Transaction {
				tx := data("orphan")
				tx.Trunk = hashutil.Sum([]byte("nobody's"))
				return mined(t, key, tx)
			},
			status: http.StatusUnprocessableEntity,
			want:   tangle.ErrUnknownParent,
		},
		{
			name: "stamped an hour ahead of the gateway's clock",
			build: func(t *testing.T, key *identity.KeyPair) *txn.Transaction {
				tx := data("post-dated")
				tx.Timestamp = clk.Now().Add(time.Hour)
				return mined(t, key, tx)
			},
			status: http.StatusTooEarly,
			want:   node.ErrTimestampAhead,
		},
		{
			name: "bad signature",
			build: func(t *testing.T, key *identity.KeyPair) *txn.Transaction {
				tx := mined(t, key, data("forged"))
				tx.Signature[0] ^= 0x01 // before the encoding caches
				return tx
			},
			status: http.StatusBadRequest,
		},
		{
			name: "missing parents",
			build: func(t *testing.T, key *identity.KeyPair) *txn.Transaction {
				tx := data("parentless")
				tx.Trunk, tx.Branch = hashutil.Zero, hashutil.Zero
				tx.Sign(key)
				return tx
			},
			status: http.StatusBadRequest,
		},
	}
	keys := make([]*identity.KeyPair, len(rows))
	for i := range rows {
		keys[i] = mustKey(t)
		f.mgr.AuthorizeDevice(keys[i].Public(), keys[i].BoxPublic())
	}
	if _, err := f.mgr.PublishAuthorization(context.Background()); err != nil {
		t.Fatal(err)
	}
	sentinels := []error{node.ErrUnauthorizedDevice, node.ErrRateLimited, node.ErrWrongDifficulty, node.ErrTimestampAhead, tangle.ErrDuplicate, tangle.ErrUnknownParent}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, err := f.client.Submit(context.Background(), row.build(t, keys[i]))
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != row.status {
				t.Fatalf("err = %v, want rpc status %d", err, row.status)
			}
			for _, s := range sentinels {
				if got := errors.Is(err, s); got != (s == row.want) {
					t.Errorf("err = %v: errors.Is(err, %q) = %v", err, s, got)
				}
			}
		})
	}
}

func mustKey(t *testing.T) *identity.KeyPair {
	t.Helper()
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return key
}
