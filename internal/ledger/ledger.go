// Package ledger tracks token balances for B-IoT accounts, giving
// double-spending (paper §III) concrete semantics on top of the tangle.
//
// Each account owns a balance and a monotonically increasing spend
// sequence. A transfer consumes one (account, seq) resource; applying
// two transfers with the same sequence is the ledger-level definition of
// a double spend. The tangle detects and resolves such conflicts (the
// heavier branch wins); this package settles the *winning* transfers
// into balances once they confirm.
package ledger

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// Ledger is an account-balance book. Safe for concurrent use.
type Ledger struct {
	mu       sync.RWMutex
	balances map[identity.Address]uint64
	nextSeq  map[identity.Address]uint64
	spent    map[txn.SpendKey]hashutil.Hash
	// held are transfers Apply was given ahead of their sender's next
	// sequence, by spend key: each settles when its predecessor does.
	held   map[txn.SpendKey]settlement
	supply uint64
}

// settlement is what settling a transfer needs of it beyond its spend key.
type settlement struct {
	id     hashutil.Hash
	to     identity.Address
	amount uint64
}

// Application errors.
var (
	ErrInsufficientFunds = errors.New("insufficient funds")
	ErrSeqReplayed       = errors.New("spend sequence already consumed")
	ErrSeqOutOfOrder     = errors.New("spend sequence out of order")
	ErrNotTransfer       = errors.New("transaction is not a transfer")
)

// New creates an empty ledger.
func New() *Ledger {
	return &Ledger{
		balances: make(map[identity.Address]uint64),
		nextSeq:  make(map[identity.Address]uint64),
		spent:    make(map[txn.SpendKey]hashutil.Hash),
		held:     make(map[txn.SpendKey]settlement),
	}
}

// Mint credits amount new tokens to addr (genesis allocation; in a smart
// factory the manager endows devices with transaction budget).
func (l *Ledger) Mint(addr identity.Address, amount uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances[addr] += amount
	l.supply += amount
}

// Balance returns addr's settled balance.
func (l *Ledger) Balance(addr identity.Address) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.balances[addr]
}

// Supply returns the total minted supply; transfers conserve it.
func (l *Ledger) Supply() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.supply
}

// NextSeq returns the next unconsumed spend sequence for addr.
func (l *Ledger) NextSeq(addr identity.Address) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nextSeq[addr]
}

// Apply settles the viewed confirmed transfer, filed under id, into
// balances. It returns an error (leaving balances unchanged) when the
// transfer is malformed, replays a consumed sequence, skips ahead, or
// overdraws. One that skips ahead is held, not lost — transfers confirm
// in whatever order their branches gain weight — and settles the moment
// its sender's sequence reaches it.
func (l *Ledger) Apply(v txn.View, id hashutil.Hash) error {
	tr, err := v.Transfer()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotTransfer, err)
	}
	key := v.SpendKey(tr)

	l.mu.Lock()
	defer l.mu.Unlock()

	s := settlement{id: id, to: tr.To, amount: tr.Amount}
	if want := l.nextSeq[key.Account]; tr.Seq > want {
		if _, ok := l.held[key]; !ok {
			l.held[key] = s
		}
		return fmt.Errorf("%w: got seq %d, want %d; held until then", ErrSeqOutOfOrder, tr.Seq, want)
	}
	err = l.settleLocked(key, s)
	for ok := err == nil; ok; {
		key.Seq++
		if s, ok = l.held[key]; ok {
			delete(l.held, key)
			ok = l.settleLocked(key, s) == nil
		}
	}
	return err
}

// settleLocked moves t's amount from key's account to t's recipient and
// consumes key, which is not ahead of the account's next sequence.
func (l *Ledger) settleLocked(key txn.SpendKey, t settlement) error {
	from := key.Account
	if winner, dup := l.spent[key]; dup {
		return fmt.Errorf("%w: seq %d of %s already spent by %s",
			ErrSeqReplayed, key.Seq, from.Short(), winner.Short())
	}
	if l.balances[from] < t.amount {
		return fmt.Errorf("%w: balance %d < amount %d",
			ErrInsufficientFunds, l.balances[from], t.amount)
	}
	l.balances[from] -= t.amount
	l.balances[t.to] += t.amount
	l.nextSeq[from] = key.Seq + 1
	l.spent[key] = t.id
	return nil
}

// Spender returns the transaction that consumed the given spend key.
func (l *Ledger) Spender(key txn.SpendKey) (hashutil.Hash, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	id, ok := l.spent[key]
	return id, ok
}

// AccountCount returns the number of accounts with any balance history.
func (l *Ledger) AccountCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.balances)
}

// Snapshot returns a copy of all balances, sorted by address for
// deterministic iteration.
func (l *Ledger) Snapshot() []AccountBalance {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]AccountBalance, 0, len(l.balances))
	for addr, bal := range l.balances {
		out = append(out, AccountBalance{Address: addr, Balance: bal})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Address.Compare(out[j].Address) < 0
	})
	return out
}

// AccountBalance pairs an address with its settled balance.
type AccountBalance struct {
	Address identity.Address
	Balance uint64
}
