package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// mergeAll pages src's full digest into dst, mimicking the backbone
// exchange, and returns the accumulated stats.
func mergeAll(t *testing.T, src, dst *Ledger, now time.Time) MergeStats {
	t.Helper()
	var st MergeStats
	for from, more := 0, true; more; {
		page, next, _, m := src.DigestPage(from, 2, now, 0)
		// Round-trip through JSON: the backbone ships digests encoded.
		raw, err := json.Marshal(page)
		if err != nil {
			t.Fatalf("marshal digest: %v", err)
		}
		var decoded CreditDigest
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("unmarshal digest: %v", err)
		}
		s := dst.Merge(decoded)
		st.TxsMerged += s.TxsMerged
		st.EventsMerged += s.EventsMerged
		from, more = next, m
	}
	return st
}

// TestMergeKeepsIncrementalCreditExact drives two ledgers with
// independent random traffic, reconciles them in both directions at
// random instants, and asserts the reconcile invariants after every
// step: CreditOf matches the model kept beside each ledger for every
// account on both sides, and a repeated merge of the same state moves
// nothing (idempotence).
func TestMergeKeepsIncrementalCreditExact(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Ledger {
			l, err := NewLedger(incTestParams())
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		a, b := mk(), mk()
		models := map[*Ledger]*creditModel{a: newCreditModel(incTestParams()), b: newCreditModel(incTestParams())}
		now := time.Unix(2000, 0)
		addrs := make([]identity.Address, 4)
		for i := range addrs {
			addrs[i] = identity.Address(hashutil.Sum([]byte{0xA0, byte(i)}))
		}
		nextID := 0

		for step := 0; step < 250; step++ {
			l := a
			if rng.Intn(2) == 1 {
				l = b
			}
			addr := addrs[rng.Intn(len(addrs))]
			switch op := rng.Intn(10); {
			case op < 6: // local admission
				nextID++
				id := hashutil.Sum([]byte(fmt.Sprintf("m-%d-%d", seed, nextID)))
				w, at := rng.Float64()*4, now.Add(-time.Duration(rng.Intn(8))*time.Second)
				l.RecordTransaction(addr, id, w, at)
				models[l].record(addr, id, w, at)
			case op < 7: // detection
				ev := EventRecord{
					Behaviour: Behaviour(rng.Intn(3) + 1),
					At:        now.Add(-time.Duration(rng.Intn(20)) * time.Second),
					Detail:    fmt.Sprintf("det-%d", nextID),
				}
				l.RecordMalicious(addr, ev)
				models[l].event(addr, ev)
			case op < 8: // reconcile one direction
				src, dst := a, b
				if rng.Intn(2) == 1 {
					src, dst = b, a
				}
				mergeAll(t, src, dst, now)
				models[src].mergeInto(models[dst], now)
				// Idempotence: replaying the identical digest merges nothing.
				if again := mergeAll(t, src, dst, now); again.TxsMerged != 0 || again.EventsMerged != 0 {
					t.Fatalf("seed %d step %d: re-merge moved %+v", seed, step, again)
				}
			case op < 9: // prune one side
				l.Prune(now, 10*time.Second)
				models[l].prune(now, 10*time.Second)
			}
			now = now.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)

			for _, l := range []*Ledger{a, b} {
				for _, addr := range addrs {
					if got, want := l.CreditOf(addr, now), models[l].credit(addr, now); !creditClose(got, want) {
						t.Fatalf("seed %d step %d: credit %+v, model %+v", seed, step, got, want)
					}
				}
			}
		}
	}
}

// TestMergeConvergesRoamingCredit is the roaming shape in miniature: a
// device earns history in region A only; after reconciliation region B
// evaluates a positive credit for it, and a full two-way exchange makes
// both regions agree exactly.
func TestMergeConvergesRoamingCredit(t *testing.T) {
	mk := func() *Ledger {
		l, err := NewLedger(incTestParams())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	a, b := mk(), mk()
	dev := identity.Address(hashutil.Sum([]byte("roamer")))
	now := time.Unix(3000, 0)
	for i := 0; i < 20; i++ {
		a.RecordTransaction(dev, hashutil.Sum([]byte(fmt.Sprintf("r%d", i))), 2, now.Add(-time.Duration(i)*time.Second))
	}
	a.RecordMalicious(dev, EventRecord{Behaviour: BehaviourLazyTips, At: now.Add(-5 * time.Second)})

	if got := b.CreditOf(dev, now); got.Cr != 0 {
		t.Fatalf("region B knows the device before reconcile: %+v", got)
	}
	mergeAll(t, a, b, now)
	mergeAll(t, b, a, now)

	ca, cb := a.CreditOf(dev, now), b.CreditOf(dev, now)
	if cb.CrP <= 0 {
		t.Fatalf("roamed credit not carried: %+v", cb)
	}
	if !creditClose(ca, cb) {
		t.Fatalf("regions disagree after full exchange: %+v vs %+v", ca, cb)
	}
}
