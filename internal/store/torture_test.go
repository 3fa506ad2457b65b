package store

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// tortureSeed lets a failing schedule be replayed: the failure message
// prints the seed and crash point, and BIOT_CHAOS_SEED pins it.
func tortureSeed(t *testing.T) int64 {
	t.Helper()
	if env := os.Getenv("BIOT_CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("BIOT_CHAOS_SEED: %v", err)
		}
		return seed
	}
	return 0xB107
}

// TestCrashPointTorture enumerates every durable-affecting I/O
// operation in an append → compact → append cycle and crashes the disk
// at each one. After every crash, reopening the log must recover a
// state S with mustHave ⊑ S ⊑ H, where mustHave is the set of records
// durable when the crash hit (successful Appends sync; successful
// Compact replaces), H is one of the two valid histories (pre-compact
// stream, or compacted stream + post appends), and ⊑ is the
// record-prefix relation. That single relation pins all four
// acceptance properties: no loss of synced records, no corruption, no
// duplicates, no undetected torn tail.
func TestCrashPointTorture(t *testing.T) {
	seed := tortureSeed(t)
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tag string) *txn.Transaction {
		tx := sampleTx(t, key, tag)
		return tx
	}
	pre := make([]*txn.Transaction, 6)
	for i := range pre {
		pre[i] = mk(fmt.Sprintf("pre-%d", i))
	}
	keep := pre[3:] // compaction keeps the last 3
	post := []*txn.Transaction{mk("post-0"), mk("post-1")}

	ids := func(txs []*txn.Transaction) []hashutil.Hash {
		out := make([]hashutil.Hash, len(txs))
		for i, tx := range txs {
			out[i] = tx.ID()
		}
		return out
	}
	h1 := ids(pre)                        // history if compaction never committed
	h2 := append(ids(keep), ids(post)...) // history once it did

	// workload drives the cycle, recording after each completed step
	// the lower bound of what must now be durable. It returns on the
	// first injected crash.
	workload := func(fs *chaos.MemFS) (mustHave []hashutil.Hash) {
		l, err := OpenFS(fs, "tx.log", nil)
		if err != nil {
			return nil
		}
		defer l.Close()
		for _, tx := range pre {
			if err := l.Append(tx); err != nil {
				return mustHave
			}
			mustHave = append(mustHave, tx.ID())
		}
		if err := l.Compact(exactly(keep)); err != nil {
			return mustHave
		}
		mustHave = ids(keep)
		for _, tx := range post {
			if err := l.Append(tx); err != nil {
				return mustHave
			}
			mustHave = append(mustHave, tx.ID())
		}
		return mustHave
	}

	// Fault-free dry run to learn the op count and sanity-check the
	// invariant machinery.
	dry := chaos.NewMemFS(seed)
	if got := workload(dry); len(got) != len(h2) {
		t.Fatalf("dry run completed %d records, want %d", len(got), len(h2))
	}
	total := dry.Ops()
	if total < 10 {
		t.Fatalf("suspiciously few ops: %d", total)
	}

	isPrefix := func(p, s []hashutil.Hash) bool {
		if len(p) > len(s) {
			return false
		}
		for i := range p {
			if p[i] != s[i] {
				return false
			}
		}
		return true
	}

	for crash := 1; crash <= total; crash++ {
		fs := chaos.NewMemFS(seed + int64(crash))
		fs.CrashAfter(crash)
		mustHave := workload(fs)
		if !fs.Crashed() {
			t.Fatalf("seed=%d crash=%d: workload survived its crash point", seed, crash)
		}
		fs.Reboot()

		var recovered []hashutil.Hash
		l, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
			recovered = append(recovered, tx.ID())
			return nil
		})
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				// Crashed before the file's directory entry was durable.
				if len(mustHave) > 0 {
					t.Fatalf("seed=%d crash=%d: log vanished with %d durable records", seed, crash, len(mustHave))
				}
				continue
			}
			t.Fatalf("seed=%d crash=%d: recovery failed: %v", seed, crash, err)
		}

		if !isPrefix(recovered, h1) && !isPrefix(recovered, h2) {
			t.Fatalf("seed=%d crash=%d: recovered %d records match neither history (corruption, duplicate, or reorder)",
				seed, crash, len(recovered))
		}
		if !isPrefix(mustHave, recovered) {
			t.Fatalf("seed=%d crash=%d: lost durable records: recovered %d, %d were synced",
				seed, crash, len(recovered), len(mustHave))
		}
		// The recovered log must be live: a post-recovery append lands
		// and survives another clean reopen.
		probe := mk(fmt.Sprintf("probe-%d", crash))
		if err := l.Append(probe); err != nil {
			t.Fatalf("seed=%d crash=%d: recovered log rejects appends: %v", seed, crash, err)
		}
		l.Close()
		found := false
		l2, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
			if tx.ID() == probe.ID() {
				found = true
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed=%d crash=%d: second reopen: %v", seed, crash, err)
		}
		l2.Close()
		if !found {
			t.Fatalf("seed=%d crash=%d: post-recovery append lost", seed, crash)
		}
	}
}

// TestCrashDuringRecoveryTruncation crashes the disk during the
// truncate-and-sync that repairs a torn tail, then recovers again: the
// second recovery must still satisfy the prefix invariant (the repair
// itself is crash-safe).
func TestCrashDuringRecoveryTruncation(t *testing.T) {
	seed := tortureSeed(t)
	key, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := chaos.NewMemFS(seed)
	l, err := OpenFS(fs, "tx.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []hashutil.Hash
	for i := 0; i < 3; i++ {
		tx := sampleTx(t, key, fmt.Sprintf("r%d", i))
		if err := l.Append(tx); err != nil {
			t.Fatal(err)
		}
		want = append(want, tx.ID())
	}
	l.Close()

	// Plant a torn tail, then crash on the repair's truncate.
	raw, err := fs.ReadFile("tx.log")
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("tx.log", append(raw, 0xB1, 0x0C, 0x0D))
	fs.CrashAfter(1)
	if _, err := OpenFS(fs, "tx.log", nil); !errors.Is(err, chaos.ErrCrashed) {
		t.Fatalf("open over crashed repair err = %v", err)
	}
	fs.Reboot()

	var got []hashutil.Hash
	l2, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
		got = append(got, tx.ID())
		return nil
	})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch after double recovery", i)
		}
	}
}
