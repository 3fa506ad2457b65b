package node_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// submitFixture is a standalone gateway, rate-limited to one submission
// per device per second, on which the manager's list authorizing dev is
// the only admitted transaction.
type submitFixture struct {
	gw      *node.FullNode
	clk     *clock.Virtual
	mgrKey  *identity.KeyPair
	dev     *identity.KeyPair
	sybil   *identity.KeyPair
	parents [2]hashutil.Hash // the list and a genesis root: a tip and a root, so nothing is a lazy approval
}

func newSubmitFixture(t *testing.T) *submitFixture {
	t.Helper()
	f := &submitFixture{clk: clock.NewVirtual(time.Unix(1_700_000_000, 0))}
	for _, k := range []**identity.KeyPair{&f.mgrKey, &f.dev, &f.sybil} {
		key, err := identity.Generate()
		if err != nil {
			t.Fatal(err)
		}
		*k = key
	}
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	f.gw, err = node.NewFull(node.FullConfig{
		Key:        key,
		Role:       identity.RoleGateway,
		ManagerPub: f.mgrKey.Public(),
		Credit:     testParams(),
		Clock:      f.clk,
		RateLimit:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := genesisIDs(t, f.gw)
	f.parents = g
	list := f.list(t, f.mgrKey, authz.List{Seq: 1, Devices: []string{identity.EncodePublic(f.dev.Public())}})
	f.submit(t, list)
	f.parents = [2]hashutil.Hash{list.ID(), g[0]}
	return f
}

// submit admits tx, failing the test if it is refused.
func (f *submitFixture) submit(t *testing.T, tx *txn.Transaction) {
	t.Helper()
	if _, err := f.gw.Submit(context.Background(), tx); err != nil {
		t.Fatalf("setup submission refused: %v", err)
	}
}

// tx crafts a data transaction from key approving the fixture's parents,
// mined to what the gateway demands of key right now.
func (f *submitFixture) tx(key *identity.KeyPair, payload string) *txn.Transaction {
	return craftTx(key, txn.KindData, []byte(payload), f.parents[0], f.parents[1],
		f.clk.Now(), f.gw.DifficultyFor(key.Address()))
}

// list crafts an authorization list signed by key approving the fixture's
// parents, mined to what the gateway demands of key right now.
func (f *submitFixture) list(t *testing.T, key *identity.KeyPair, list authz.List) *txn.Transaction {
	t.Helper()
	payload, err := authz.EncodeList(list)
	if err != nil {
		t.Fatal(err)
	}
	return craftTx(key, txn.KindAuthorization, payload, f.parents[0], f.parents[1],
		f.clk.Now(), f.gw.DifficultyFor(key.Address()))
}

// underMined re-mines tx to a nonce whose proof of work falls short of
// what the gateway demands of its sender, and re-signs it.
func (f *submitFixture) underMined(tx *txn.Transaction, key *identity.KeyPair) *txn.Transaction {
	need := f.gw.DifficultyFor(key.Address())
	for tx.Nonce = 0; txn.PowDigest(tx.Trunk, tx.Branch, tx.Nonce).LeadingZeroBits() >= need; tx.Nonce++ {
	}
	tx.Sign(key)
	return tx
}

// submitCounters are the six admission counters a submission can move.
type submitCounters struct {
	Accepted, Rejected, RateLimited, Unauthorized, StaleAuthRejects, Quarantined int64
}

func submitCountersOf(n *node.FullNode) submitCounters {
	c := n.CountersView()
	return submitCounters{
		Accepted:         c.Accepted.Value(),
		Rejected:         c.Rejected.Value(),
		RateLimited:      c.RateLimited.Value(),
		Unauthorized:     c.Unauthorized.Value(),
		StaleAuthRejects: c.StaleAuthRejects.Value(),
		Quarantined:      c.Quarantined.Value(),
	}
}

// submitFault is one refused submission: what it is, how to build it on a
// fresh fixture (setup submissions included), and what the gateway must
// answer and count.
type submitFault struct {
	name  string
	build func(t *testing.T, f *submitFixture) *txn.Transaction
	want  error
	count submitCounters
}

func runSubmitFaults(t *testing.T, faults []submitFault) {
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			f := newSubmitFixture(t)
			tx := fault.build(t, f)
			_, err := f.gw.Submit(context.Background(), tx)
			if !errors.Is(err, fault.want) {
				t.Errorf("Submit = %v, want %v", err, fault.want)
			}
			if got := submitCountersOf(f.gw); got != fault.count {
				t.Errorf("counters = %+v, want exactly %+v", got, fault.count)
			}
			if f.gw.Tangle().Contains(tx.ID()) {
				t.Error("the refused transaction is on the ledger")
			}
		})
	}
}

// TestSubmitRejectCounterParity pins the submission edge's accounting: a
// submission with exactly one fault is refused with that fault's sentinel
// error and moves exactly one counter by one. Accepted counts the manager's
// list every row starts from, and the rate-limited row's first submission.
func TestSubmitRejectCounterParity(t *testing.T) {
	runSubmitFaults(t, []submitFault{
		{
			name: "malformed-structure",
			build: func(t *testing.T, f *submitFixture) *txn.Transaction {
				return craftTx(f.dev, txn.KindData, []byte("m"), hashutil.Hash{}, f.parents[1],
					f.clk.Now(), f.gw.DifficultyFor(f.dev.Address()))
			},
			want:  txn.ErrMissingParents,
			count: submitCounters{Accepted: 1, Rejected: 1},
		},
		{
			name: "bad-signature",
			build: func(t *testing.T, f *submitFixture) *txn.Transaction {
				tx := f.tx(f.dev, "b")
				tx.Signature[0] ^= 0xFF // before the encoding caches
				return tx
			},
			want:  txn.ErrBadTxSignature,
			count: submitCounters{Accepted: 1, Rejected: 1},
		},
		{
			name: "non-manager-authorization-list",
			build: func(t *testing.T, f *submitFixture) *txn.Transaction {
				return f.list(t, f.dev, authz.List{Seq: 2, Devices: []string{identity.EncodePublic(f.dev.Public())}})
			},
			want:  authz.ErrNotManager,
			count: submitCounters{Accepted: 1, Unauthorized: 1},
		},
		{
			name:  "unauthorized-device",
			build: func(t *testing.T, f *submitFixture) *txn.Transaction { return f.tx(f.sybil, "s") },
			want:  node.ErrUnauthorizedDevice,
			count: submitCounters{Accepted: 1, Unauthorized: 1},
		},
		{
			name: "rate-limited",
			build: func(t *testing.T, f *submitFixture) *txn.Transaction {
				f.submit(t, f.tx(f.dev, "first"))
				return f.tx(f.dev, "second")
			},
			want:  node.ErrRateLimited,
			count: submitCounters{Accepted: 2, RateLimited: 1},
		},
		{
			name: "pow-below-credit-difficulty",
			build: func(t *testing.T, f *submitFixture) *txn.Transaction {
				return f.underMined(&txn.Transaction{Trunk: f.parents[0], Branch: f.parents[1],
					Timestamp: f.clk.Now(), Kind: txn.KindData, Payload: []byte("w")}, f.dev)
			},
			want:  node.ErrWrongDifficulty,
			count: submitCounters{Accepted: 1, Rejected: 1},
		},
	})
}

// TestSubmitRejectOrder pins the two submissions with two faults whose
// counter the gate's order decides, each changed deliberately when the
// submission edge took the one order every edge runs (DESIGN.md §7):
//
//   - an unauthorized sender with a bad signature is refused at the issuer
//     rule, before the signature, so a Sybil flood no longer costs an
//     Ed25519 verification per submission (it counted Rejected before);
//   - a rate-limited sender with proof of work below its difficulty is
//     refused at the proof of work, before the rate limit, so it no longer
//     spends a rate slot (it counted RateLimited before).
func TestSubmitRejectOrder(t *testing.T) {
	runSubmitFaults(t, []submitFault{
		{
			name: "unauthorized-and-bad-signature",
			build: func(t *testing.T, f *submitFixture) *txn.Transaction {
				tx := f.tx(f.sybil, "s")
				tx.Signature[0] ^= 0xFF
				return tx
			},
			want:  node.ErrUnauthorizedDevice,
			count: submitCounters{Accepted: 1, Unauthorized: 1},
		},
		{
			name: "rate-limited-and-pow-below-credit-difficulty",
			build: func(t *testing.T, f *submitFixture) *txn.Transaction {
				f.submit(t, f.tx(f.dev, "first"))
				return f.underMined(&txn.Transaction{Trunk: f.parents[0], Branch: f.parents[1],
					Timestamp: f.clk.Now(), Kind: txn.KindData, Payload: []byte("w")}, f.dev)
			},
			want:  node.ErrWrongDifficulty,
			count: submitCounters{Accepted: 2, Rejected: 1},
		},
	})
}
