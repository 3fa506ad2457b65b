package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/txn"
)

func TestPoisonOnFailedSync(t *testing.T) {
	fs := chaos.NewMemFS(1)
	key := mustKey(t)
	l, err := OpenFS(fs, "tx.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleTx(t, key, "good")); err != nil {
		t.Fatal(err)
	}
	if !l.Healthy() {
		t.Fatal("healthy log reports unhealthy")
	}

	fs.InjectSyncError(nil)
	err = l.Append(sampleTx(t, key, "doomed"))
	if !errors.Is(err, chaos.ErrInjectedFault) {
		t.Fatalf("append over failed sync err = %v", err)
	}
	if l.Healthy() {
		t.Fatal("log healthy after failed sync")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil on poisoned log")
	}

	// Every later append fails with ErrPoisoned even though the disk
	// has "recovered" — the unsynced tail is in an unknown state.
	for i := 0; i < 3; i++ {
		if err := l.Append(sampleTx(t, key, "after")); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("append %d after poison err = %v", i, err)
		}
	}
	// Compaction also refuses.
	if err := l.Compact(exactly(nil)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("compact on poisoned log err = %v", err)
	}
	l.Close()

	// Crash the machine and reopen: poison clears, and what replays is
	// a valid prefix of the append stream — the synced record always,
	// the unsynced one only if the kernel happened to flush it anyway.
	fs.Reboot()
	count := 0
	l2, err := OpenFS(fs, "tx.log", func(*txn.Transaction) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if count < 1 || count > 2 {
		t.Fatalf("replayed %d, want 1 (synced) or 2 (unsynced tail flushed anyway)", count)
	}
	if !l2.Healthy() {
		t.Fatal("reopened log unhealthy")
	}
	if err := l2.Append(sampleTx(t, key, "recovered")); err != nil {
		t.Fatal(err)
	}
}

func TestPoisonOnFailedWrite(t *testing.T) {
	fs := chaos.NewMemFS(2)
	key := mustKey(t)
	l, err := OpenFS(fs, "tx.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs.InjectWriteError(nil)
	if err := l.Append(sampleTx(t, key, "short")); !errors.Is(err, chaos.ErrInjectedFault) {
		t.Fatalf("append over short write err = %v", err)
	}
	if err := l.Append(sampleTx(t, key, "next")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after short write err = %v", err)
	}
}

func TestCompactRewritesSegment(t *testing.T) {
	fs := chaos.NewMemFS(3)
	key := mustKey(t)
	l, err := OpenFS(fs, "tx.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []*txn.Transaction
	for i := 0; i < 10; i++ {
		tx := sampleTx(t, key, string(rune('a'+i)))
		all = append(all, tx)
		if err := l.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	if l.Generation() != 0 {
		t.Fatalf("fresh generation = %d", l.Generation())
	}

	// Keep the last 4.
	if err := l.Compact(exactly(all[6:])); err != nil {
		t.Fatal(err)
	}
	if l.Generation() != 1 {
		t.Fatalf("generation after compact = %d", l.Generation())
	}
	if l.Len() != 4 {
		t.Fatalf("len after compact = %d", l.Len())
	}
	// Appends continue on the new segment.
	post := sampleTx(t, key, "post-compact")
	if err := l.Append(post); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var got []*txn.Transaction
	l2, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
		got = append(got, tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 5 {
		t.Fatalf("replayed %d, want 5", len(got))
	}
	want := append(append([]*txn.Transaction(nil), all[6:]...), post)
	for i := range want {
		if got[i].ID() != want[i].ID() {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if st := l2.Stats(); st.Generation != 1 || st.Records != 5 || st.TornBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Temp segment cleaned up.
	for _, name := range fs.Files() {
		if name == "tx.log.compact" {
			t.Fatal("compact temp file left behind")
		}
	}
}

// TestHeaderlessJournalRefused pins the safety net left where the
// pre-v2 read path used to be: a file starting with a record (no
// segment header) is real history in a format this build cannot
// replay, so Open must fail with ErrCorruptLog and must NOT treat it as
// a garbage prefix to truncate. Failing is repeatable and leaves the
// bytes exactly as found.
func TestHeaderlessJournalRefused(t *testing.T) {
	fs := chaos.NewMemFS(4)
	rec, err := encodeRecord(sampleTx(t, mustKey(t), "legacy").Encode())
	if err != nil {
		t.Fatal(err)
	}
	original := append(append([]byte(nil), rec...), rec[:5]...) // + torn tail
	fs.WriteFile("tx.log", original)

	for attempt := 1; attempt <= 2; attempt++ {
		l, err := OpenFSGen(fs, "tx.log", func(txn.View, uint64) error {
			t.Fatal("replayed a record from a headerless journal")
			return nil
		})
		if err == nil {
			l.Close()
			t.Fatalf("open %d: headerless journal accepted", attempt)
		}
		if !errors.Is(err, ErrCorruptLog) || !strings.Contains(err.Error(), "headerless pre-v2 journal") {
			t.Fatalf("open %d: err = %v, want ErrCorruptLog (headerless pre-v2 journal)", attempt, err)
		}
		raw, rerr := fs.ReadFile("tx.log")
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(raw, original) {
			t.Fatalf("open %d: refused journal was modified (%d bytes, was %d)", attempt, len(raw), len(original))
		}
	}
}

func TestTornSegmentHeaderResets(t *testing.T) {
	fs := chaos.NewMemFS(5)
	var hdr [segHeaderSize]byte
	putSegHeader(hdr[:], 0)
	fs.WriteFile("tx.log", hdr[:7]) // crashed mid-header-write

	l, err := OpenFS(fs, "tx.log", func(*txn.Transaction) error {
		t.Fatal("replayed a record from a torn header")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(sampleTx(t, mustKey(t), "fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestRealFSStatsAndGeneration(t *testing.T) {
	// The same v2 behaviour through chaos.OS() on a real temp dir.
	path := filepath.Join(t.TempDir(), "tx.log")
	key := mustKey(t)
	l, err := OpenFS(chaos.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := sampleTx(t, key, "disk")
	if err := l.Append(tx); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(exactly([]*txn.Transaction{tx})); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleTx(t, key, "disk2")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	count := 0
	l2, err := OpenFS(chaos.OS(), path, func(*txn.Transaction) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if count != 2 || l2.Generation() != 1 {
		t.Fatalf("count=%d gen=%d", count, l2.Generation())
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp segment left on real fs")
	}
}
