package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// TestRescanParityAcross512Accounts holds credit to the model kept
// beside each ledger in the shape the packed records and their shared
// index must hold up under: 512 accounts on two ledgers, records arriving
// mostly in order (sometimes late, sometimes early), re-records, weight
// updates, removals, events, prunes and digest merges interleaved. After
// every step the credit of a random account on both ledgers equals the
// model's, and every few hundred steps each ledger's full record set —
// every weight on the record it was meant for — matches the model's.
func TestRescanParityAcross512Accounts(t *testing.T) {
	const accounts = 512
	type key struct {
		addr identity.Address
		id   hashutil.Hash
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		params := incTestParams()
		addrs := make([]identity.Address, accounts)
		for i := range addrs {
			addrs[i] = identity.Address(hashutil.Sum([]byte(fmt.Sprintf("acct-%d", i))))
		}
		var (
			ledgers [2]*Ledger
			models  [2]*creditModel
			known   [2][]key
		)
		for i := range ledgers {
			ledgers[i], models[i] = mustLedger(t, params), newCreditModel(params)
		}
		now := time.Unix(10_000, 0)
		nextID := 0

		for step := 0; step < 6000; step++ {
			side := rng.Intn(2)
			l, model := ledgers[side], models[side]
			addr := addrs[rng.Intn(accounts)]
			switch op := rng.Intn(20); {
			case op < 9: // a new record, usually at now, sometimes late or early
				nextID++
				k := key{addr, hashutil.Sum([]byte(fmt.Sprintf("tx-%d-%d", seed, nextID)))}
				at := now
				if rng.Intn(4) == 0 {
					at = now.Add(time.Duration(rng.Intn(30_000)-25_000) * time.Millisecond)
				}
				w := rng.Float64()*6 - 1
				l.RecordTransaction(k.addr, k.id, w, at)
				model.record(k.addr, k.id, w, at)
				known[side] = append(known[side], k)
			case op < 10 && len(known[side]) > 0: // a re-record: instant kept, weight only grows
				k := known[side][rng.Intn(len(known[side]))]
				w := rng.Float64() * 6
				l.RecordTransaction(k.addr, k.id, w, now)
				model.record(k.addr, k.id, w, now) // pruned or removed since: recorded afresh
			case op < 14 && len(known[side]) > 0: // approvals
				k := known[side][rng.Intn(len(known[side]))]
				w := rng.Float64() * 8
				l.UpdateWeight(k.addr, k.id, w)
				model.update(k.addr, k.id, w)
			case op < 15 && len(known[side]) > 0: // an attach rolled back
				i := rng.Intn(len(known[side]))
				k := known[side][i]
				l.RemoveTransaction(k.addr, k.id)
				model.remove(k.addr, k.id)
				known[side] = append(known[side][:i], known[side][i+1:]...)
			case op < 16:
				ev := EventRecord{
					Behaviour: Behaviour(rng.Intn(3) + 1),
					At:        now.Add(-time.Duration(rng.Intn(20)) * time.Second),
					Detail:    fmt.Sprintf("det-%d", step),
				}
				l.RecordMalicious(addr, ev)
				model.event(addr, ev)
			case op < 17:
				keep := time.Duration(10+rng.Intn(20)) * time.Second
				l.Prune(now, keep)
				model.prune(now, keep)
			case op < 18: // reconcile into the other ledger
				dst := 1 - side
				for from, more := 0, true; more; {
					var page CreditDigest
					page, from, _, more = l.DigestPage(from, 64, now, 0)
					ledgers[dst].Merge(page)
				}
				cutoff := now.Add(-params.DeltaT).UnixNano()
				for addr, recs := range model.txs {
					for id, r := range recs {
						if _, ok := models[dst].txs[addr][id]; !ok && r.at >= cutoff {
							known[dst] = append(known[dst], key{addr, id})
						}
					}
				}
				model.mergeInto(models[dst], now)
			}
			if rng.Intn(15) == 0 {
				now = now.Add(-time.Duration(rng.Intn(4000)) * time.Millisecond)
			} else {
				now = now.Add(time.Duration(rng.Intn(400)) * time.Millisecond)
			}

			qa := addrs[rng.Intn(accounts)]
			for side, l := range ledgers {
				if got, want := l.CreditOf(qa, now), models[side].credit(qa, now); !creditClose(got, want) {
					t.Fatalf("seed %d step %d: ledger %d credit %+v, model %+v", seed, step, side, got, want)
				}
			}
			if step%500 != 499 {
				continue
			}
			for side, l := range ledgers {
				got, n := map[key]modelRec{}, 0
				page, _, _, _ := l.DigestPage(0, accounts, now, 1000*time.Hour)
				for _, acct := range page.Accounts {
					for _, tr := range acct.Txs {
						got[key{acct.Addr, tr.ID}] = modelRec{tr.Weight, tr.At.UnixNano()}
					}
				}
				for addr, recs := range models[side].txs {
					for id, want := range recs {
						n++
						if got[key{addr, id}] != want {
							t.Fatalf("seed %d step %d: ledger %d holds %+v for %s, model %+v", seed, step, side, got[key{addr, id}], id.Short(), want)
						}
					}
				}
				if len(got) != n {
					t.Fatalf("seed %d step %d: ledger %d holds %d records, model %d", seed, step, side, len(got), n)
				}
			}
		}
	}
}

// digestGoldenSHA256 is the SHA-256 of the JSON of digestHistory's pages
// as 23a5d40 (TxRecord slices and a per-account map) produced it.
const digestGoldenSHA256 = "2d9898b24c8b6211b9496870d5ce428e504987fee6c872c898a776388d0a3cdd"

// digestHistory drives a ledger through every mutation the digest sees —
// in-order, late and early records, weights that are not short binary
// fractions, re-records, approvals, a removal, a prune and events — and
// returns the JSON of its digest pages, as the backbone ships them.
func digestHistory(t *testing.T) []byte {
	t.Helper()
	l, err := NewLedger(incTestParams())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 123_456_789)
	id := func(i int) hashutil.Hash { return hashutil.Sum([]byte(fmt.Sprintf("golden-%d", i))) }
	addr := func(i int) identity.Address { return identity.Address(hashutil.Sum([]byte{0x60, byte(i)})) }
	for i := 0; i < 60; i++ {
		at := base.Add(time.Duration(i)*700*time.Millisecond + time.Duration(i*i)*time.Nanosecond)
		if i%7 == 3 {
			at = at.Add(-5 * time.Second) // late
		}
		if i%11 == 5 {
			at = at.Add(3 * time.Second) // early
		}
		l.RecordTransaction(addr(i%5), id(i), float64(i%4)/3+0.1, at)
	}
	for i := 0; i < 60; i += 3 {
		l.UpdateWeight(addr(i%5), id(i), float64(i)/7)
	}
	l.RecordTransaction(addr(1), id(1), 2.2, base) // re-record: weight grows, instant kept
	l.RemoveTransaction(addr(2), id(7))
	l.RecordMalicious(addr(3), EventRecord{Behaviour: BehaviourLazyTips, At: base.Add(9 * time.Second), Evidence: []hashutil.Hash{id(3)}, Detail: "lazy"})
	now := base.Add(45 * time.Second)
	l.Prune(now, 20*time.Second)
	var out []byte
	for from, more := 0, true; more; {
		var page CreditDigest
		page, from, _, more = l.DigestPage(from, 2, now, 30*time.Second)
		raw, err := json.Marshal(page)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, raw...), '\n')
	}
	return out
}

// TestDigestPageJSONUnchanged: for the same history, the digest pages a
// gateway ships are byte for byte those of 23a5d40, before records were
// packed — instants to the nanosecond, weights to the last bit. Instants
// print in the local zone, so the test pins it to UTC.
func TestDigestPageJSONUnchanged(t *testing.T) {
	defer func(loc *time.Location) { time.Local = loc }(time.Local)
	time.Local = time.UTC
	got := digestHistory(t)
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != digestGoldenSHA256 {
		t.Fatalf("digest JSON changed: sha256 %x, want %s\n%s", sum, digestGoldenSHA256, got)
	}
}

// TestRecordIndexSurvivesChurn holds the (account, ID) index to its one
// job under the operations that move slots — inserts in and out of
// order, removals from anywhere, growth — at about 300 records, over half
// the table, where probe runs are long: after every operation, every
// record is found exactly where it lies.
func TestRecordIndexSurvivesChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, err := NewLedger(incTestParams())
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		addr identity.Address
		id   hashutil.Hash
	}
	var known []key
	base := time.Unix(50_000, 0)
	for op := 0; op < 6000; op++ {
		if len(known) < 300 || rng.Intn(2) == 0 {
			k := key{identity.Address(hashutil.Sum([]byte{byte(rng.Intn(24))})), hashutil.Sum([]byte(fmt.Sprint("churn", op)))}
			l.RecordTransaction(k.addr, k.id, 1, base.Add(time.Duration(rng.Intn(5000))*time.Millisecond))
			known = append(known, k)
		} else {
			i := rng.Intn(len(known))
			l.RemoveTransaction(known[i].addr, known[i].id)
			known = append(known[:i], known[i+1:]...)
		}
		for _, acct := range l.accts {
			for pos, r := range acct.txs {
				if got, ok := l.index.find(acct, r.id); !ok || got != pos {
					t.Fatalf("op %d: record at %d of account %d found at %d (%v)", op, pos, acct.slot, got, ok)
				}
			}
		}
		if l.index.n != len(known) {
			t.Fatalf("op %d: index holds %d slots for %d records", op, l.index.n, len(known))
		}
	}
}
