package txn

import (
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// Allocation budgets for the wire hot path. These are regression
// guards, not aspirations: the benchmark-regression smoke in `make
// test` fails if the admission path drifts above them.
//
//   - decodeVerifyIDBudget covers the full inbound cost of one relayed
//     transaction: Decode (one owned buffer + the transaction struct and
//     its cache snapshot, digest included, in one), ID, signature verify
//     and PoW check (zero — they run over the cached encoding).
//   - Steady-state re-encode, re-ID, signing-bytes and PoW digest are
//     pinned at zero: that is the "stop re-serializing" contract.
const decodeVerifyIDBudget = 2

func wireTx(tb testing.TB) (*Transaction, []byte) {
	tb.Helper()
	key, err := identity.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	tx := &Transaction{
		Trunk:     hashutil.Sum([]byte("alloc-trunk")),
		Branch:    hashutil.Sum([]byte("alloc-branch")),
		Timestamp: time.Unix(1_700_000_000, 0).UTC(),
		Kind:      KindData,
		Payload:   make([]byte, 256),
	}
	tx.Sign(key)
	return tx, tx.Encode()
}

// TestWirePathAllocationBudget pins the allocation count of the full
// inbound admission sequence — decode, identify, verify signature,
// verify PoW — at decodeVerifyIDBudget per transaction.
func TestWirePathAllocationBudget(t *testing.T) {
	_, raw := wireTx(t)
	got := testing.AllocsPerRun(200, func() {
		d, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		_ = d.ID()
		if err := d.VerifyBasic(); err != nil {
			t.Fatal(err)
		}
		_ = d.VerifyPoW(0)
	})
	if got > decodeVerifyIDBudget {
		t.Fatalf("decode+ID+verify+PoW allocates %.1f/op, budget %d", got, decodeVerifyIDBudget)
	}
}

// TestDecodeSeedsTheID: Decode hashes the bytes it has just copied and
// publishes one cache snapshot carrying the digest, so the first ID() of
// every relayed, synced or replayed transaction allocates nothing. (It
// used to publish a second 80-byte snapshot and drop the first.)
func TestDecodeSeedsTheID(t *testing.T) {
	tx, raw := wireTx(t)
	want := tx.ID()
	const runs = 200
	fresh := make([]*Transaction, runs+1) // AllocsPerRun makes one warm-up call
	for i := range fresh {
		d, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = d
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if fresh[next].ID() != want {
			t.Fatal("decoded transaction has a different ID")
		}
		next++
	})
	if got != 0 {
		t.Fatalf("the first ID() after Decode allocates %.1f/op, want 0", got)
	}
}

// TestSteadyStateZeroAlloc pins the cached re-read paths at zero
// allocations: once a transaction has been encoded or decoded, no
// amount of re-encoding, re-identifying or re-verifying serializes it
// again.
func TestSteadyStateZeroAlloc(t *testing.T) {
	tx, _ := wireTx(t)
	tx.ID() // warm the cache and its digest
	checks := []struct {
		name string
		fn   func()
	}{
		{"ID", func() { _ = tx.ID() }},
		{"Encode", func() { _ = tx.Encode() }},
		{"SigningBytes", func() { _ = tx.SigningBytes() }},
		{"PowDigest", func() { _ = tx.PowDigest() }},
		{"AppendEncode", func() {
			var buf [512]byte
			_ = tx.AppendEncode(buf[:0])
		}},
	}
	for _, c := range checks {
		if got := testing.AllocsPerRun(200, c.fn); got != 0 {
			t.Errorf("%s allocates %.1f/op after caching, want 0", c.name, got)
		}
	}
}

// TestNonceChangeRefreshesCache pins the one legal post-encode
// mutation: PoW stores the winning nonce after signing, and the cache
// must follow it (stale IDs here would fork the ledger).
func TestNonceChangeRefreshesCache(t *testing.T) {
	tx, _ := wireTx(t)
	id1 := tx.ID()
	enc1 := append([]byte(nil), tx.Encode()...)
	tx.Nonce = 0xFEEDFACE
	if tx.ID() == id1 {
		t.Fatal("ID unchanged after nonce mutation")
	}
	enc2 := tx.Encode()
	if len(enc1) != len(enc2) {
		t.Fatal("encoding length changed with nonce")
	}
	decoded, err := Decode(enc2)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Nonce != 0xFEEDFACE {
		t.Fatalf("re-encoded nonce = %#x", decoded.Nonce)
	}
	if err := decoded.VerifyBasic(); err != nil {
		t.Fatalf("nonce change broke the cached signature view: %v", err)
	}
}

// TestInvalidateAllowsFieldMutation pins the escape hatch for tests and
// attack harnesses that mutate fields directly after an encode.
func TestInvalidateAllowsFieldMutation(t *testing.T) {
	tx, _ := wireTx(t)
	if err := tx.VerifyBasic(); err != nil {
		t.Fatal(err)
	}
	tx.Payload = append(tx.Payload, 0xFF)
	tx.Invalidate()
	if err := tx.VerifyBasic(); err == nil {
		t.Fatal("tampered payload verified after Invalidate")
	}
}

func BenchmarkDecodeVerifyID(b *testing.B) {
	_, raw := wireTx(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Decode(raw)
		if err != nil {
			b.Fatal(err)
		}
		_ = d.ID()
		if err := d.VerifyBasic(); err != nil {
			b.Fatal(err)
		}
	}
}
