package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

func incTestParams() Params {
	p := DefaultParams()
	p.DeltaT = 10 * time.Second
	return p
}

func creditClose(a, b Credit) bool {
	const eps = 1e-9
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= eps*(1+math.Abs(x)+math.Abs(y))
	}
	return near(a.CrP, b.CrP) && near(a.CrN, b.CrN) && near(a.Cr, b.Cr)
}

// modelRec is one record of a creditModel: its weight and its instant
// (Unix nanoseconds).
type modelRec struct {
	weight float64
	at     int64
}

// creditModel is the reference the ledger's credit is checked against:
// every record in a plain map of account → ID → (weight, instant), every
// event in arrival order, and credit computed from them by the paper's
// definition (Eqns 2–4) — no ordering, no index, no binary search. It
// keeps every event: the tests that use it stay below the event cap,
// which TestEventCapBoundsHistory checks on its own.
type creditModel struct {
	params Params
	txs    map[identity.Address]map[hashutil.Hash]modelRec
	events map[identity.Address][]EventRecord
}

func newCreditModel(p Params) *creditModel {
	return &creditModel{
		params: p,
		txs:    map[identity.Address]map[hashutil.Hash]modelRec{},
		events: map[identity.Address][]EventRecord{},
	}
}

// record is RecordTransaction: the weight clamped to [0, MaxWeight]; a
// known ID keeps its instant and only ever grows its weight.
func (m *creditModel) record(addr identity.Address, id hashutil.Hash, w float64, at time.Time) {
	w = min(max(w, 0), m.params.MaxWeight)
	if m.txs[addr] == nil {
		m.txs[addr] = map[hashutil.Hash]modelRec{}
	}
	if r, ok := m.txs[addr][id]; ok {
		m.txs[addr][id] = modelRec{max(w, r.weight), r.at}
		return
	}
	m.txs[addr][id] = modelRec{w, at.UnixNano()}
}

// update is UpdateWeight: an unknown ID is ignored, a weight only grows.
func (m *creditModel) update(addr identity.Address, id hashutil.Hash, w float64) {
	if r, ok := m.txs[addr][id]; ok && min(w, m.params.MaxWeight) > r.weight {
		m.txs[addr][id] = modelRec{min(w, m.params.MaxWeight), r.at}
	}
}

func (m *creditModel) remove(addr identity.Address, id hashutil.Hash) { delete(m.txs[addr], id) }

func (m *creditModel) event(addr identity.Address, ev EventRecord) {
	m.events[addr] = append(m.events[addr], ev)
}

// prune is Prune: records older than keep before now go, keep raised to
// ΔT.
func (m *creditModel) prune(now time.Time, keep time.Duration) {
	cutoff := now.Add(-max(keep, m.params.DeltaT)).UnixNano()
	for _, recs := range m.txs {
		for id, r := range recs {
			if r.at < cutoff {
				delete(recs, id)
			}
		}
	}
}

// mergeInto is a full digest exchange into dst at now: src's records of
// the last ΔT recorded there, and its events that dst does not hold yet.
func (m *creditModel) mergeInto(dst *creditModel, now time.Time) {
	cutoff := now.Add(-m.params.DeltaT).UnixNano()
	for addr, recs := range m.txs {
		for id, r := range recs {
			if r.at >= cutoff {
				dst.record(addr, id, r.weight, time.Unix(0, r.at))
			}
		}
	}
	for addr, evs := range m.events {
	next:
		for _, ev := range evs {
			for _, have := range dst.events[addr] {
				if keyOf(have) == keyOf(ev) {
					continue next
				}
			}
			dst.event(addr, ev)
		}
	}
}

// credit is Eqns 2–4 at now over every record and event of addr.
func (m *creditModel) credit(addr identity.Address, now time.Time) Credit {
	p := m.params
	deltaT := p.DeltaT.Seconds()
	var crP, crN float64
	for _, r := range m.txs[addr] {
		if r.at >= now.Add(-p.DeltaT).UnixNano() && r.at <= now.UnixNano() {
			crP += r.weight
		}
	}
	crP /= deltaT
	for _, ev := range m.events[addr] {
		if !ev.At.After(now) {
			crN -= p.Alpha(ev.Behaviour) * deltaT / max(now.Sub(ev.At).Seconds(), p.MinEventAge.Seconds())
		}
	}
	return Credit{CrP: crP, CrN: crN, Cr: p.Lambda1*crP + p.Lambda2*crN}
}

// TestIncrementalCreditMatchesRescan holds CreditOf to the model kept
// beside the ledger: after arbitrary interleavings of record /
// update-weight / remove / prune / malicious-event operations under a
// mostly-advancing (but occasionally rewinding) clock, with records
// landing before, inside and after the window; on a hot account whose
// clock only advances; on records exactly at the window's edges; and
// after prunes behind and into the window.
func TestIncrementalCreditMatchesRescan(t *testing.T) {
	check := func(t *testing.T, l *Ledger, m *creditModel, addr identity.Address, now time.Time, what string) {
		t.Helper()
		if got, want := l.CreditOf(addr, now), m.credit(addr, now); !creditClose(got, want) {
			t.Fatalf("%s: credit %+v, model %+v", what, got, want)
		}
	}
	t.Run("interleaved", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l, m := mustLedger(t, incTestParams()), newCreditModel(incTestParams())
			now := time.Unix(1000, 0)
			addrs := make([]identity.Address, 3)
			for i := range addrs {
				addrs[i] = identity.Address(hashutil.Sum([]byte{byte(i + 1)}))
			}
			type known struct {
				addr identity.Address
				id   hashutil.Hash
			}
			var ids []known
			nextID := 0

			for step := 0; step < 400; step++ {
				addr := addrs[rng.Intn(len(addrs))]
				switch op := rng.Intn(10); {
				case op < 4: // record a tx somewhere around now (past, in-window, future)
					nextID++
					id := hashutil.Sum([]byte(fmt.Sprintf("tx-%d-%d", seed, nextID)))
					at := now.Add(time.Duration(rng.Intn(30)-22) * time.Second)
					w := rng.Float64() * 4
					l.RecordTransaction(addr, id, w, at)
					m.record(addr, id, w, at)
					ids = append(ids, known{addr, id})
				case op < 5 && len(ids) > 0: // grow a weight
					k, w := ids[rng.Intn(len(ids))], rng.Float64()*8
					l.UpdateWeight(k.addr, k.id, w)
					m.update(k.addr, k.id, w)
				case op < 6 && len(ids) > 0: // withdraw a record
					i := rng.Intn(len(ids))
					l.RemoveTransaction(ids[i].addr, ids[i].id)
					m.remove(ids[i].addr, ids[i].id)
					ids = append(ids[:i], ids[i+1:]...)
				case op < 7: // malicious event
					ev := EventRecord{
						Behaviour: Behaviour(rng.Intn(3) + 1),
						At:        now.Add(-time.Duration(rng.Intn(20)) * time.Second),
					}
					l.RecordMalicious(addr, ev)
					m.event(addr, ev)
				case op < 8: // prune
					keep := time.Duration(10+rng.Intn(20)) * time.Second
					l.Prune(now, keep)
					m.prune(now, keep)
				}

				// Advance the clock; occasionally rewind it (replays and
				// skewed virtual clocks do this in the wild).
				if rng.Intn(12) == 0 {
					now = now.Add(-time.Duration(rng.Intn(5000)) * time.Millisecond)
				} else {
					now = now.Add(time.Duration(rng.Intn(1500)) * time.Millisecond)
				}
				qa := addrs[rng.Intn(len(addrs))]
				check(t, l, m, qa, now, fmt.Sprintf("seed=%d step=%d", seed, step))
				// A second query at the same instant reads the same.
				check(t, l, m, qa, now, fmt.Sprintf("seed=%d step=%d requery", seed, step))
			}
		}
	})
	t.Run("advance_only", func(t *testing.T) {
		// The admission shape: records landing at "now" on a clock that
		// only advances, 2 000 of them through a 10 s window.
		l, m := mustLedger(t, incTestParams()), newCreditModel(incTestParams())
		addr := identity.Address(hashutil.Sum([]byte("hot")))
		now := time.Unix(5000, 0)
		for i := 0; i < 2000; i++ {
			id := hashutil.Sum([]byte(fmt.Sprintf("hot-%d", i)))
			l.RecordTransaction(addr, id, 1, now)
			m.record(addr, id, 1, now)
			check(t, l, m, addr, now, fmt.Sprintf("step %d", i))
			now = now.Add(37 * time.Millisecond)
		}
	})
	t.Run("window_edges", func(t *testing.T) {
		// A record exactly ΔT old counts and so does one at now; one a
		// nanosecond older than ΔT or later than now does not.
		p := incTestParams()
		l, m := mustLedger(t, p), newCreditModel(p)
		addr := identity.Address(hashutil.Sum([]byte("edges")))
		now := time.Unix(6000, 0)
		for i, at := range []time.Time{now.Add(-p.DeltaT - 1), now.Add(-p.DeltaT), now, now.Add(1)} {
			id, w := hashutil.Sum([]byte(fmt.Sprintf("edge-%d", i))), float64(int(1)<<i)
			l.RecordTransaction(addr, id, w, at)
			m.record(addr, id, w, at)
		}
		if got, want := l.CreditOf(addr, now).CrP, 6/p.DeltaT.Seconds(); got != want {
			t.Fatalf("CrP at the window's edges = %v, want %v", got, want)
		}
		check(t, l, m, addr, now, "edges")
	})
	t.Run("prune_into_window", func(t *testing.T) {
		// Prune far behind the window, then with a later clock whose
		// cutoff lands inside the window an earlier query looked at.
		l, m := mustLedger(t, incTestParams()), newCreditModel(incTestParams())
		addr := identity.Address(hashutil.Sum([]byte("pruned")))
		base := time.Unix(3000, 0)
		for i := 0; i < 50; i++ {
			id := hashutil.Sum([]byte(fmt.Sprintf("p-%d", i)))
			l.RecordTransaction(addr, id, 1, base.Add(time.Duration(i)*time.Second))
			m.record(addr, id, 1, base.Add(time.Duration(i)*time.Second))
		}
		now := base.Add(55 * time.Second)
		check(t, l, m, addr, now, "before pruning")
		l.Prune(now, 40*time.Second)
		m.prune(now, 40*time.Second)
		check(t, l, m, addr, now, "after a prune behind the window")
		later := now.Add(30 * time.Second)
		l.Prune(later, 10*time.Second)
		m.prune(later, 10*time.Second)
		check(t, l, m, addr, now, "after a prune into the window")
		check(t, l, m, addr, later, "after a prune into the window, at its instant")
	})
}

// TestEventCapBoundsHistory: retained events never exceed the cap, and
// the capped CrN is exactly the retained events' plus the carry term —
// the evicted events' coefficients decayed by the newest evicted age, an
// overestimate of their punishment by design — so it is never milder
// than the uncapped sum the model computes.
func TestEventCapBoundsHistory(t *testing.T) {
	const events = maxEventsRetained + 44
	p := incTestParams()
	l, m := mustLedger(t, p), newCreditModel(p)
	addr := identity.Address(hashutil.Sum([]byte("attacker")))
	base := time.Unix(9000, 0)
	for i := 0; i < events; i++ {
		ev := EventRecord{Behaviour: BehaviourDoubleSpend, At: base.Add(time.Duration(i) * time.Second)}
		l.RecordMalicious(addr, ev)
		m.event(addr, ev)
		if got := len(l.Events(addr)); got > maxEventsRetained {
			t.Fatalf("after %d events, %d retained > cap %d", i+1, got, maxEventsRetained)
		}
	}
	now := base.Add(events * 2 * time.Second)
	age := func(i int) float64 { return now.Sub(base.Add(time.Duration(i) * time.Second)).Seconds() }
	alpha, deltaT := p.Alpha(BehaviourDoubleSpend), p.DeltaT.Seconds()
	evicted := events - maxEventsRetained
	want := -float64(evicted) * alpha * deltaT / age(evicted-1)
	for i := evicted; i < events; i++ {
		want -= alpha * deltaT / age(i)
	}
	got := l.CreditOf(addr, now).CrN
	if math.Abs(got-want) > epsFloat*math.Abs(want) {
		t.Fatalf("capped CrN = %v, want %v (retained events plus the carry)", got, want)
	}
	if uncapped := m.credit(addr, now).CrN; got > uncapped {
		t.Fatalf("capped CrN %v is milder than uncapped %v — carry must never under-punish", got, uncapped)
	}
}

// TestCrNCacheInvalidatedByNewEvent: a repeat query at the same instant
// reflects an event recorded between the two queries, even one identical
// to an event already held — two detections are two punishments.
func TestCrNCacheInvalidatedByNewEvent(t *testing.T) {
	l := mustLedger(t, incTestParams())
	addr := identity.Address(hashutil.Sum([]byte("cached")))
	now := time.Unix(7000, 0)
	ev := EventRecord{Behaviour: BehaviourLazyTips, At: now.Add(-5 * time.Second)}
	l.RecordMalicious(addr, ev)
	first := l.CreditOf(addr, now).CrN
	l.RecordMalicious(addr, ev)
	second := l.CreditOf(addr, now).CrN
	if second != 2*first {
		t.Fatalf("CrN %v after a second identical event, want twice %v", second, first)
	}
	if again := l.CreditOf(addr, now).CrN; again != second {
		t.Fatalf("repeat query %v != %v", again, second)
	}
}
