package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

var (
	t0       = time.Unix(1_700_000_000, 0).UTC()
	nodeA    = identity.Address(hashutil.Sum([]byte("node-a")))
	nodeB    = identity.Address(hashutil.Sum([]byte("node-b")))
	txFixt   = func(i int) hashutil.Hash { return hashutil.Sum([]byte(fmt.Sprintf("tx-%d", i))) }
	epsFloat = 1e-9
)

func mustLedger(t *testing.T, p Params) *Ledger {
	t.Helper()
	l, err := NewLedger(p)
	if err != nil {
		t.Fatalf("new ledger: %v", err)
	}
	return l
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.Lambda1 != 1.0 || p.Lambda2 != 0.5 {
		t.Errorf("λ = (%v, %v), paper sets (1, 0.5)", p.Lambda1, p.Lambda2)
	}
	if p.DeltaT != 30*time.Second {
		t.Errorf("ΔT = %v, paper sets 30 s", p.DeltaT)
	}
	if p.AlphaLazy != 0.5 || p.AlphaDouble != 1.0 {
		t.Errorf("α = (%v, %v), paper sets (0.5, 1)", p.AlphaLazy, p.AlphaDouble)
	}
	if p.InitialDifficulty != 11 {
		t.Errorf("D0 = %d, paper sets 11", p.InitialDifficulty)
	}
	if p.MinDifficulty != 1 || p.MaxDifficulty != 14 {
		t.Errorf("range [%d, %d], paper sweeps [1, 14]", p.MinDifficulty, p.MaxDifficulty)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"both lambdas zero", func(p *Params) { p.Lambda1, p.Lambda2 = 0, 0 }},
		{"negative lambda", func(p *Params) { p.Lambda1 = -1 }},
		{"zero deltaT", func(p *Params) { p.DeltaT = 0 }},
		{"negative alpha", func(p *Params) { p.AlphaLazy = -0.1 }},
		{"zero min event age", func(p *Params) { p.MinEventAge = 0 }},
		{"min > max difficulty", func(p *Params) { p.MinDifficulty = 15 }},
		{"initial below min", func(p *Params) { p.InitialDifficulty = 0 }},
		{"max above pow bound", func(p *Params) { p.MaxDifficulty = 1000 }},
		{"zero max weight", func(p *Params) { p.MaxWeight = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid params validated")
			}
		})
	}
}

func TestAlphaPerBehaviour(t *testing.T) {
	p := DefaultParams()
	if p.Alpha(BehaviourLazyTips) != 0.5 {
		t.Error("α_l wrong")
	}
	if p.Alpha(BehaviourDoubleSpend) != 1.0 {
		t.Error("α_d wrong")
	}
	// Unknown behaviours get the strictest coefficient (never zero).
	if got := p.Alpha(Behaviour(99)); got != 1.0 {
		t.Errorf("unknown behaviour α = %v, want strictest (1.0)", got)
	}
}

// TestEqn3PositiveCredit checks CrP = Σ w_k / ΔT over the window.
func TestEqn3PositiveCredit(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	// 3 transactions of weights 1, 2, 3 inside the window.
	l.RecordTransaction(nodeA, txFixt(1), 1, t0.Add(-5*time.Second))
	l.RecordTransaction(nodeA, txFixt(2), 2, t0.Add(-10*time.Second))
	l.RecordTransaction(nodeA, txFixt(3), 3, t0.Add(-20*time.Second))
	// One outside the window: excluded.
	l.RecordTransaction(nodeA, txFixt(4), 10, t0.Add(-40*time.Second))

	want := (1.0 + 2.0 + 3.0) / 30.0
	if got := l.CreditOf(nodeA, t0).CrP; math.Abs(got-want) > epsFloat {
		t.Errorf("CrP = %v, want %v", got, want)
	}
}

func TestCrPZeroForInactiveNode(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	if l.CreditOf(nodeA, t0).CrP != 0 {
		t.Error("fresh node has nonzero CrP")
	}
	l.RecordTransaction(nodeA, txFixt(1), 3, t0)
	// "If node i does not submit transactions for a period of time ...
	// CrP = 0."
	if got := l.CreditOf(nodeA, t0.Add(2*p.DeltaT)).CrP; got != 0 {
		t.Errorf("CrP after idling = %v, want 0", got)
	}
}

func TestCrPIgnoresFutureRecords(t *testing.T) {
	l := mustLedger(t, DefaultParams())
	l.RecordTransaction(nodeA, txFixt(1), 5, t0.Add(10*time.Second))
	if got := l.CreditOf(nodeA, t0).CrP; got != 0 {
		t.Errorf("future record counted: CrP = %v", got)
	}
}

func TestWeightClamping(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	l.RecordTransaction(nodeA, txFixt(1), p.MaxWeight*10, t0)
	want := p.MaxWeight / p.DeltaT.Seconds()
	if got := l.CreditOf(nodeA, t0).CrP; math.Abs(got-want) > epsFloat {
		t.Errorf("CrP = %v, want clamped %v", got, want)
	}
	l.RecordTransaction(nodeB, txFixt(2), -3, t0)
	if got := l.CreditOf(nodeB, t0).CrP; got != 0 {
		t.Errorf("negative weight contributed: %v", got)
	}
}

// TestEqn4NegativeCredit checks CrN = −Σ α(B)·ΔT/(t−t_k).
func TestEqn4NegativeCredit(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	l.RecordMalicious(nodeA, EventRecord{Behaviour: BehaviourDoubleSpend, At: t0.Add(-10 * time.Second)})
	l.RecordMalicious(nodeA, EventRecord{Behaviour: BehaviourLazyTips, At: t0.Add(-15 * time.Second)})

	want := -(1.0*30.0/10.0 + 0.5*30.0/15.0)
	if got := l.CreditOf(nodeA, t0).CrN; math.Abs(got-want) > epsFloat {
		t.Errorf("CrN = %v, want %v", got, want)
	}
}

func TestCrNFiniteAtDetectionInstant(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	l.RecordMalicious(nodeA, EventRecord{Behaviour: BehaviourDoubleSpend, At: t0})
	got := l.CreditOf(nodeA, t0).CrN
	want := -1.0 * p.DeltaT.Seconds() / p.MinEventAge.Seconds()
	if math.Abs(got-want) > epsFloat {
		t.Errorf("CrN at detection = %v, want floored %v", got, want)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Error("CrN not finite at detection instant")
	}
}

// The paper: "the impact cannot be eliminated over time" — CrN decays
// toward zero but never reaches it.
func TestCrNDecaysButNeverVanishes(t *testing.T) {
	l := mustLedger(t, DefaultParams())
	l.RecordMalicious(nodeA, EventRecord{Behaviour: BehaviourDoubleSpend, At: t0})
	prev := l.CreditOf(nodeA, t0).CrN
	for _, age := range []time.Duration{10 * time.Second, time.Minute, time.Hour, 24 * time.Hour} {
		cur := l.CreditOf(nodeA, t0.Add(age)).CrN
		if cur <= prev {
			t.Errorf("CrN did not increase toward 0 at age %v: %v -> %v", age, prev, cur)
		}
		if cur >= 0 {
			t.Errorf("CrN reached zero at age %v", age)
		}
		prev = cur
	}
}

// TestEqn2Combination checks Cr = λ1·CrP + λ2·CrN.
func TestEqn2Combination(t *testing.T) {
	p := DefaultParams()
	p.Lambda1 = 0.8
	p.Lambda2 = 1.7
	l := mustLedger(t, p)
	l.RecordTransaction(nodeA, txFixt(1), 3, t0.Add(-5*time.Second))
	l.RecordMalicious(nodeA, EventRecord{Behaviour: BehaviourDoubleSpend, At: t0.Add(-10 * time.Second)})
	c := l.CreditOf(nodeA, t0)
	want := p.Lambda1*c.CrP + p.Lambda2*c.CrN
	if math.Abs(c.Cr-want) > epsFloat {
		t.Errorf("Cr = %v, want λ-combination %v", c.Cr, want)
	}
	if c.CrP <= 0 || c.CrN >= 0 {
		t.Errorf("component signs wrong: %+v", c)
	}
}

func TestCreditIsolationBetweenNodes(t *testing.T) {
	l := mustLedger(t, DefaultParams())
	l.RecordMalicious(nodeA, EventRecord{Behaviour: BehaviourDoubleSpend, At: t0})
	l.RecordTransaction(nodeB, txFixt(1), 2, t0)
	if l.CreditOf(nodeB, t0).CrN != 0 {
		t.Error("node B inherited node A's punishment")
	}
	if l.CreditOf(nodeA, t0).CrP != 0 {
		t.Error("node A inherited node B's activity")
	}
}

func TestUpdateWeight(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	id := txFixt(1)
	l.RecordTransaction(nodeA, id, 1, t0)
	l.UpdateWeight(nodeA, id, 3)
	want := 3.0 / p.DeltaT.Seconds()
	if got := l.CreditOf(nodeA, t0).CrP; math.Abs(got-want) > epsFloat {
		t.Errorf("CrP after update = %v, want %v", got, want)
	}
	// Weights only grow.
	l.UpdateWeight(nodeA, id, 2)
	if got := l.CreditOf(nodeA, t0).CrP; math.Abs(got-want) > epsFloat {
		t.Errorf("weight shrank: CrP = %v", got)
	}
	// Unknown IDs and nodes are ignored.
	l.UpdateWeight(nodeA, txFixt(99), 5)
	l.UpdateWeight(nodeB, id, 5)
	if got := l.CreditOf(nodeB, t0).CrP; got != 0 {
		t.Error("update for unknown node created records")
	}
}

func TestUpdateWeightClamped(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	id := txFixt(1)
	l.RecordTransaction(nodeA, id, 1, t0)
	l.UpdateWeight(nodeA, id, p.MaxWeight*100)
	want := p.MaxWeight / p.DeltaT.Seconds()
	if got := l.CreditOf(nodeA, t0).CrP; math.Abs(got-want) > epsFloat {
		t.Errorf("CrP = %v, want clamped %v", got, want)
	}
}

func TestOutOfOrderRecords(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	// Insert out of order; window filtering must still be correct.
	l.RecordTransaction(nodeA, txFixt(1), 1, t0.Add(-5*time.Second))
	l.RecordTransaction(nodeA, txFixt(2), 2, t0.Add(-50*time.Second)) // outside
	l.RecordTransaction(nodeA, txFixt(3), 4, t0.Add(-25*time.Second))
	want := (1.0 + 4.0) / 30.0
	if got := l.CreditOf(nodeA, t0).CrP; math.Abs(got-want) > epsFloat {
		t.Errorf("CrP = %v, want %v", got, want)
	}
	// Weight updates must survive the reordering (index consistency).
	l.UpdateWeight(nodeA, txFixt(3), 6)
	want = (1.0 + 6.0) / 30.0
	if got := l.CreditOf(nodeA, t0).CrP; math.Abs(got-want) > epsFloat {
		t.Errorf("CrP after update = %v, want %v", got, want)
	}
}

func TestEventsAndNodesAccessors(t *testing.T) {
	l := mustLedger(t, DefaultParams())
	l.RecordMalicious(nodeA, EventRecord{Behaviour: BehaviourLazyTips, At: t0, Detail: "x"})
	l.RecordTransaction(nodeB, txFixt(1), 1, t0)
	events := l.Events(nodeA)
	if len(events) != 1 || events[0].Behaviour != BehaviourLazyTips {
		t.Errorf("Events = %+v", events)
	}
	// Returned slice is a copy.
	events[0].Detail = "mutated"
	if l.Events(nodeA)[0].Detail != "x" {
		t.Error("Events exposed internal storage")
	}
	if n := len(l.Nodes()); n != 2 {
		t.Errorf("Nodes = %d, want 2", n)
	}
	if l.TransactionCount(nodeB) != 1 || l.TransactionCount(nodeA) != 0 {
		t.Error("TransactionCount wrong")
	}
}

func TestPruneKeepsWindowAndEvents(t *testing.T) {
	p := DefaultParams()
	l := mustLedger(t, p)
	l.RecordTransaction(nodeA, txFixt(1), 2, t0.Add(-2*time.Hour))
	l.RecordTransaction(nodeA, txFixt(2), 2, t0.Add(-10*time.Second))
	l.RecordMalicious(nodeA, EventRecord{Behaviour: BehaviourDoubleSpend, At: t0.Add(-2 * time.Hour)})

	pruned := l.Prune(t0, time.Minute)
	if pruned != 1 {
		t.Errorf("pruned = %d, want 1", pruned)
	}
	// In-window record intact.
	if got := l.CreditOf(nodeA, t0).CrP; math.Abs(got-2.0/30.0) > epsFloat {
		t.Errorf("CrP after prune = %v", got)
	}
	// Events are never pruned (punishment cannot be eliminated).
	if len(l.Events(nodeA)) != 1 {
		t.Error("prune dropped a malicious event")
	}
	// A keep shorter than ΔT is raised to ΔT.
	l.RecordTransaction(nodeA, txFixt(3), 2, t0.Add(-20*time.Second))
	if n := l.Prune(t0, time.Second); n != 0 {
		t.Errorf("prune with keep < ΔT dropped %d in-window records", n)
	}
}

// Property: CrP is non-negative and monotone in added weight.
func TestCrPPropertyNonNegativeMonotone(t *testing.T) {
	p := DefaultParams()
	check := func(weights []float64) bool {
		l, err := NewLedger(p)
		if err != nil {
			return false
		}
		prev := 0.0
		for i, w := range weights {
			l.RecordTransaction(nodeA, txFixt(i), math.Abs(w), t0)
			cur := l.CreditOf(nodeA, t0).CrP
			if cur < prev-epsFloat {
				return false
			}
			prev = cur
		}
		return prev >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: each additional malicious event strictly decreases CrN.
func TestCrNPropertyMonotoneInEvents(t *testing.T) {
	p := DefaultParams()
	check := func(n uint8) bool {
		l, err := NewLedger(p)
		if err != nil {
			return false
		}
		count := int(n%10) + 1
		prev := 0.0
		for i := 0; i < count; i++ {
			l.RecordMalicious(nodeA, EventRecord{
				Behaviour: BehaviourDoubleSpend,
				At:        t0.Add(-time.Duration(i+1) * time.Second),
			})
			cur := l.CreditOf(nodeA, t0).CrN
			if cur >= prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBehaviourString(t *testing.T) {
	for _, b := range []Behaviour{BehaviourLazyTips, BehaviourDoubleSpend, BehaviourProtocol} {
		if !b.Valid() {
			t.Errorf("%v invalid", b)
		}
	}
	if Behaviour(0).Valid() {
		t.Error("zero behaviour valid")
	}
	if BehaviourLazyTips.String() != "lazy-tips" {
		t.Error("behaviour string wrong")
	}
}

// TestLedgerConcurrentAccess runs credit readers — CreditOf and the
// engine's DifficultyFor — beside every writer: RecordTransaction,
// UpdateWeight, RecordMalicious, Prune and Merge. `go test -race` runs it
// under the race detector. Each writer's end state does not depend on the
// interleaving, so at quiescence every account's credit equals the model
// fed the same operations one after another.
func TestLedgerConcurrentAccess(t *testing.T) {
	const writers, each = 4, 200
	p := DefaultParams()
	l, m := mustLedger(t, p), newCreditModel(p)
	e := NewEngine(l, nil)
	accts := []identity.Address{nodeA, nodeB, identity.Address(hashutil.Sum([]byte("node-c")))}
	now := t0.Add(time.Second)

	// Records older than the prune horizon, there before the writers
	// start: Prune drops every one of them whenever it runs.
	for i, addr := range accts {
		l.RecordTransaction(addr, txFixt(1000+i), 5, t0.Add(-2*time.Hour))
	}
	// A peer's digest page: records in the window, some under IDs the
	// writers also record, and events no writer records.
	peer := mustLedger(t, p)
	for i := 0; i < 60; i++ {
		id := hashutil.Sum([]byte(fmt.Sprintf("c-%d-%d", i%writers, i)))
		peer.RecordTransaction(accts[i%len(accts)], id, 1.5, t0.Add(time.Duration(i)*time.Millisecond))
		if i%20 == 0 {
			peer.RecordMalicious(accts[i%len(accts)], EventRecord{Behaviour: BehaviourDoubleSpend, At: t0, Detail: fmt.Sprint("remote-", i)})
		}
	}
	page, _, _, _ := peer.DigestPage(0, len(accts), now, 0)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := hashutil.Sum([]byte(fmt.Sprintf("c-%d-%d", w, i)))
				l.RecordTransaction(accts[w%2], id, 2, t0.Add(time.Duration(i)*time.Millisecond))
				l.UpdateWeight(accts[w%2], id, 3)
				if i%50 == 0 {
					l.RecordMalicious(nodeB, EventRecord{Behaviour: BehaviourLazyTips, At: t0})
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			l.Prune(now, time.Minute)
			l.Merge(page)
		}
	}()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := accts[i%len(accts)]
				if c := l.CreditOf(addr, now); c.CrP < 0 || c.CrN > 0 {
					t.Errorf("credit of %s mid-write: %+v", addr.Short(), c)
				}
				if d := e.DifficultyFor(addr, now); d < p.MinDifficulty || d > p.MaxDifficulty {
					t.Errorf("difficulty of %s mid-write: %d", addr.Short(), d)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			id := hashutil.Sum([]byte(fmt.Sprintf("c-%d-%d", w, i)))
			m.record(accts[w%2], id, 3, t0.Add(time.Duration(i)*time.Millisecond))
			if i%50 == 0 {
				m.event(nodeB, EventRecord{Behaviour: BehaviourLazyTips, At: t0})
			}
		}
	}
	for _, acct := range page.Accounts {
		for _, tr := range acct.Txs {
			m.record(acct.Addr, tr.ID, tr.Weight, tr.At)
		}
		for _, ev := range acct.Events {
			m.event(acct.Addr, ev)
		}
	}
	if got, want := l.TransactionCount(nodeA), len(m.txs[nodeA]); got != want {
		t.Errorf("transactions of node A = %d, want %d", got, want)
	}
	for _, addr := range accts {
		if got, want := l.CreditOf(addr, now), m.credit(addr, now); !creditClose(got, want) {
			t.Errorf("credit of %s at quiescence %+v, model %+v", addr.Short(), got, want)
		}
	}
}

// TestRecordTransactionIdempotent checks the upsert semantics the node
// layer relies on: duplicate records never double-count, weight only
// grows, and a rolled-back record disappears without corrupting the
// index.
func TestRecordTransactionIdempotent(t *testing.T) {
	l := mustLedger(t, DefaultParams())
	now := t0
	idA := txFixt(100)
	idB := txFixt(101)

	l.RecordTransaction(nodeA, idA, 1, now)
	l.RecordTransaction(nodeA, idA, 1, now.Add(time.Second)) // duplicate delivery
	if got := l.TransactionCount(nodeA); got != 1 {
		t.Fatalf("duplicate record double-counted: %d records", got)
	}
	want := 1 / l.Params().DeltaT.Seconds()
	if got := l.CreditOf(nodeA, now).CrP; got != want {
		t.Errorf("CrP = %v, want %v", got, want)
	}

	// Re-recording with a larger weight grows it (and never shrinks).
	l.RecordTransaction(nodeA, idA, 3, now.Add(time.Second))
	l.RecordTransaction(nodeA, idA, 2, now.Add(2*time.Second))
	if got, want := l.CreditOf(nodeA, now).CrP, 3/l.Params().DeltaT.Seconds(); got != want {
		t.Errorf("CrP after growth = %v, want %v", got, want)
	}

	l.RecordTransaction(nodeA, idB, 1, now)
	l.RemoveTransaction(nodeA, idA)
	if got := l.TransactionCount(nodeA); got != 1 {
		t.Fatalf("remove left %d records, want 1", got)
	}
	// The surviving record's index entry must still resolve.
	l.UpdateWeight(nodeA, idB, 5)
	if got, want := l.CreditOf(nodeA, now).CrP, 5/l.Params().DeltaT.Seconds(); got != want {
		t.Errorf("CrP after remove+update = %v, want %v", got, want)
	}
	l.RemoveTransaction(nodeA, idA) // absent: no-op
}
