package ledger

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

func mustKey(t *testing.T) *identity.KeyPair {
	t.Helper()
	k, err := identity.Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return k
}

func transfer(t *testing.T, key *identity.KeyPair, to identity.Address, amount, seq uint64) *txn.Transaction {
	t.Helper()
	tx := &txn.Transaction{
		Trunk:     hashutil.Sum([]byte("t")),
		Branch:    hashutil.Sum([]byte("b")),
		Timestamp: time.Unix(int64(seq), 0),
		Kind:      txn.KindTransfer,
		Payload:   txn.EncodeTransfer(txn.Transfer{To: to, Amount: amount, Seq: seq}),
	}
	tx.Sign(key)
	return tx
}

// apply settles tx into l the way the node does, from its view.
func apply(l *Ledger, tx *txn.Transaction) error { return l.Apply(tx.View(), tx.ID()) }

func TestMintAndBalance(t *testing.T) {
	l := New()
	addr := mustKey(t).Address()
	l.Mint(addr, 100)
	l.Mint(addr, 50)
	if got := l.Balance(addr); got != 150 {
		t.Errorf("balance = %d", got)
	}
	if got := l.Supply(); got != 150 {
		t.Errorf("supply = %d", got)
	}
}

func TestApplyTransfer(t *testing.T) {
	l := New()
	alice := mustKey(t)
	bob := mustKey(t).Address()
	l.Mint(alice.Address(), 100)

	if err := apply(l, transfer(t, alice, bob, 30, 0)); err != nil {
		t.Fatal(err)
	}
	if l.Balance(alice.Address()) != 70 || l.Balance(bob) != 30 {
		t.Errorf("balances = %d / %d", l.Balance(alice.Address()), l.Balance(bob))
	}
	if l.NextSeq(alice.Address()) != 1 {
		t.Errorf("next seq = %d", l.NextSeq(alice.Address()))
	}
}

func TestApplyRejectsSeqReplay(t *testing.T) {
	l := New()
	alice := mustKey(t)
	bob := mustKey(t).Address()
	l.Mint(alice.Address(), 100)
	if err := apply(l, transfer(t, alice, bob, 10, 0)); err != nil {
		t.Fatal(err)
	}
	err := apply(l, transfer(t, alice, bob, 20, 0))
	if !errors.Is(err, ErrSeqReplayed) {
		t.Errorf("err = %v, want ErrSeqReplayed", err)
	}
	if l.Balance(alice.Address()) != 90 {
		t.Error("failed apply mutated balances")
	}
}

func TestApplyRejectsSeqSkip(t *testing.T) {
	l := New()
	alice := mustKey(t)
	bob := mustKey(t).Address()
	l.Mint(alice.Address(), 100)
	if err := apply(l, transfer(t, alice, bob, 10, 5)); !errors.Is(err, ErrSeqOutOfOrder) {
		t.Errorf("err = %v, want ErrSeqOutOfOrder", err)
	}
}

func TestApplyRejectsOverdraw(t *testing.T) {
	l := New()
	alice := mustKey(t)
	bob := mustKey(t).Address()
	l.Mint(alice.Address(), 5)
	if err := apply(l, transfer(t, alice, bob, 10, 0)); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("err = %v, want ErrInsufficientFunds", err)
	}
	if l.NextSeq(alice.Address()) != 0 {
		t.Error("failed apply consumed the sequence")
	}
}

func TestApplyRejectsNonTransfer(t *testing.T) {
	l := New()
	alice := mustKey(t)
	tx := transfer(t, alice, mustKey(t).Address(), 1, 0)
	tx.Kind = txn.KindData
	if err := apply(l, tx); !errors.Is(err, ErrNotTransfer) {
		t.Errorf("err = %v, want ErrNotTransfer", err)
	}
}

func TestSpender(t *testing.T) {
	l := New()
	alice := mustKey(t)
	bob := mustKey(t).Address()
	l.Mint(alice.Address(), 10)
	tx := transfer(t, alice, bob, 10, 0)
	if err := apply(l, tx); err != nil {
		t.Fatal(err)
	}
	id, ok := l.Spender(txn.SpendKey{Account: alice.Address(), Seq: 0})
	if !ok || id != tx.ID() {
		t.Errorf("spender = (%v, %v)", id, ok)
	}
	if _, ok := l.Spender(txn.SpendKey{Account: alice.Address(), Seq: 1}); ok {
		t.Error("unconsumed key has a spender")
	}
}

func TestSelfTransferConservesSupply(t *testing.T) {
	l := New()
	alice := mustKey(t)
	l.Mint(alice.Address(), 42)
	if err := apply(l, transfer(t, alice, alice.Address(), 10, 0)); err != nil {
		t.Fatal(err)
	}
	if l.Balance(alice.Address()) != 42 {
		t.Errorf("self transfer changed balance: %d", l.Balance(alice.Address()))
	}
}

func TestSnapshotSortedAndCopied(t *testing.T) {
	l := New()
	a, b := mustKey(t).Address(), mustKey(t).Address()
	l.Mint(a, 1)
	l.Mint(b, 2)
	snap := l.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %d accounts", len(snap))
	}
	if snap[0].Address.Compare(snap[1].Address) >= 0 {
		t.Error("snapshot not sorted")
	}
	if l.AccountCount() != 2 {
		t.Errorf("account count = %d", l.AccountCount())
	}
}

// Property: any sequence of valid transfers conserves total supply and
// keeps balances non-negative (uint64 can't go negative, but the ledger
// must refuse overdraws rather than wrap).
func TestSupplyConservationProperty(t *testing.T) {
	alice := mustKey(t)
	bobAddr := mustKey(t).Address()
	check := func(amounts []uint16) bool {
		l := New()
		l.Mint(alice.Address(), 1<<20)
		supply := l.Supply()
		seq := uint64(0)
		for _, a := range amounts {
			err := apply(l, transfer(t, alice, bobAddr, uint64(a)+1, seq))
			if err == nil {
				seq++
			}
			if l.Supply() != supply {
				return false
			}
			if l.Balance(alice.Address())+l.Balance(bobAddr) != supply {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The double-spend story end to end at the ledger level: two transfers
// consuming the same sequence — only the first settles.
func TestLedgerLevelDoubleSpend(t *testing.T) {
	l := New()
	alice := mustKey(t)
	v1, v2 := mustKey(t).Address(), mustKey(t).Address()
	l.Mint(alice.Address(), 100)

	first := transfer(t, alice, v1, 60, 0)
	second := transfer(t, alice, v2, 60, 0)
	if err := apply(l, first); err != nil {
		t.Fatal(err)
	}
	if err := apply(l, second); !errors.Is(err, ErrSeqReplayed) {
		t.Errorf("double spend settled: %v", err)
	}
	if l.Balance(v2) != 0 {
		t.Error("second victim received tokens")
	}
	if l.Balance(alice.Address()) != 40 || l.Balance(v1) != 60 {
		t.Error("balances wrong after double-spend attempt")
	}
}

// A transfer that confirms ahead of its predecessor is held and settles
// with it, in sequence order, once the predecessor does.
func TestApplyHoldsSeqSkipUntilPredecessor(t *testing.T) {
	l := New()
	alice := mustKey(t)
	bob := mustKey(t).Address()
	l.Mint(alice.Address(), 100)
	for _, seq := range []uint64{2, 1} {
		if err := apply(l, transfer(t, alice, bob, 10, seq)); !errors.Is(err, ErrSeqOutOfOrder) {
			t.Fatalf("seq %d: err = %v, want ErrSeqOutOfOrder", seq, err)
		}
	}
	if l.Balance(bob) != 0 || l.NextSeq(alice.Address()) != 0 {
		t.Fatal("a held transfer settled before its predecessor")
	}
	if err := apply(l, transfer(t, alice, bob, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if l.Balance(bob) != 30 || l.Balance(alice.Address()) != 70 || l.NextSeq(alice.Address()) != 3 {
		t.Errorf("balances %d / %d, next seq %d; want 70 / 30, 3",
			l.Balance(alice.Address()), l.Balance(bob), l.NextSeq(alice.Address()))
	}
	if err := apply(l, transfer(t, alice, bob, 10, 2)); !errors.Is(err, ErrSeqReplayed) {
		t.Errorf("re-applying a settled held transfer: err = %v, want ErrSeqReplayed", err)
	}
}
