package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// creditSink keeps the compiler from dropping the benchmarked query.
var creditSink Credit

// BenchmarkCreditOf is one credit query on a live-shaped ledger: 512
// accounts, each with n records in the window, queried round-robin on a
// clock that advances a microsecond a query. At 1 and 32 records it is
// the window every bench workload sees; at 2 000 it is one device
// sending about 67 transactions a second for a whole 30 s ΔT, the long
// window a scan pays for in full.
func BenchmarkCreditOf(b *testing.B) {
	const accounts = 512
	for _, n := range []int{1, 32, 2000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			p := DefaultParams()
			l, err := NewLedger(p)
			if err != nil {
				b.Fatal(err)
			}
			addrs := make([]identity.Address, accounts)
			for a := range addrs {
				addrs[a] = identity.Address(hashutil.Sum([]byte(fmt.Sprint("device-", a))))
			}
			base := time.Unix(1_700_000_000, 0)
			step := p.DeltaT / 2 / time.Duration(n)
			for r := 0; r < n; r++ {
				for a, addr := range addrs {
					l.RecordTransaction(addr, hashutil.Sum([]byte(fmt.Sprint(a, "-", r))), 2, base.Add(time.Duration(r)*step))
				}
			}
			now := base.Add(p.DeltaT / 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				creditSink = l.CreditOf(addrs[i%accounts], now.Add(time.Duration(i%1_000_000)*time.Microsecond))
			}
		})
	}
}
