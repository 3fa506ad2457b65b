//go:build !race

package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// TestBytesPerCreditRecord is what the credit ledger holds per recorded
// transaction, all in — the packed record, its share of the account's
// slice and of the (account, ID) index, the account itself — at 512
// accounts of 40 records, the relay-fanout shape (512 devices). On go1.24
// linux/amd64 this fixture measured 198 bytes at 23a5d40, where each
// account kept []TxRecord (a 24-byte time.Time per record) and a
// map[Hash]int beside it.
func TestBytesPerCreditRecord(t *testing.T) {
	const (
		accounts = 512
		each     = 40
		bound    = 80 // bytes per record; see above
	)
	ids := make([]hashutil.Hash, accounts*each)
	for i := range ids {
		ids[i] = hashutil.Sum([]byte(fmt.Sprintf("record-%d", i)))
	}
	addrs := make([]identity.Address, accounts)
	for i := range addrs {
		addrs[i] = identity.Address(hashutil.Sum([]byte(fmt.Sprintf("device-%d", i))))
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	l, err := NewLedger(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	for r := 0; r < each; r++ { // round-robin, as readings arrive
		for a, addr := range addrs {
			i := r*accounts + a
			l.RecordTransaction(addr, ids[i], 1, base.Add(time.Duration(i)*time.Millisecond))
			l.UpdateWeight(addr, ids[i], 3)
		}
	}
	after := heap()
	per := (after - before) / (accounts * each)
	t.Logf("%d bytes retained per credit record", per)
	if per > bound {
		t.Errorf("%d bytes retained per credit record, want ≤ %d", per, bound)
	}
	runtime.KeepAlive(l)
	runtime.KeepAlive(ids)
}

// TestCreditOfAllocatesNothing: a credit query — the window's binary
// search, its sum and the events' — allocates nothing.
func TestCreditOfAllocatesNothing(t *testing.T) {
	l, err := NewLedger(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	addr := identity.Address(hashutil.Sum([]byte("device")))
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 40; i++ {
		l.RecordTransaction(addr, hashutil.Sum([]byte(fmt.Sprint("reading-", i))), 2, base.Add(time.Duration(i)*time.Second))
	}
	l.RecordMalicious(addr, EventRecord{Behaviour: BehaviourLazyTips, At: base})
	now := base.Add(40 * time.Second)
	if allocs := testing.AllocsPerRun(100, func() { l.CreditOf(addr, now) }); allocs != 0 {
		t.Errorf("CreditOf allocates %v times a query, want 0", allocs)
	}
}
