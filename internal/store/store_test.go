package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

func mustKey(t *testing.T) *identity.KeyPair {
	t.Helper()
	k, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func sampleTx(t *testing.T, key *identity.KeyPair, tag string) *txn.Transaction {
	t.Helper()
	tx := &txn.Transaction{
		Trunk:     hashutil.Sum([]byte("t")),
		Branch:    hashutil.Sum([]byte("b")),
		Timestamp: time.Unix(1, 0),
		Kind:      txn.KindData,
		Payload:   []byte(tag),
		Nonce:     7,
	}
	tx.Sign(key)
	return tx
}

// exactly is a Compact export that returns txs whatever the log holds.
func exactly(txs []*txn.Transaction) func() [][]byte {
	return func() [][]byte { return encodings(txs) }
}

// encodeRecord frames one transaction's canonical encoding as a journal
// record.
func encodeRecord(data []byte) ([]byte, error) {
	if len(data) > maxRecordLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordLarge, len(data))
	}
	return appendRecord(make([]byte, 0, headerSize+len(data)), data), nil
}

// encodings returns the transactions' canonical encodings: the records
// AppendBatch and Compact take.
func encodings(txs []*txn.Transaction) [][]byte {
	out := make([][]byte, len(txs))
	for i, tx := range txs {
		out[i] = tx.Encode()
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tx.log")
	key := mustKey(t)

	log1, err := OpenFS(chaos.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []hashutil.Hash
	for i := 0; i < 10; i++ {
		tx := sampleTx(t, key, string(rune('a'+i)))
		want = append(want, tx.ID())
		if err := log1.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	if log1.Len() != 10 {
		t.Errorf("len = %d", log1.Len())
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	var got []hashutil.Hash
	log2, err := OpenFS(chaos.OS(), path, func(tx *txn.Transaction) error {
		got = append(got, tx.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d out of order", i)
		}
	}
	if log2.Len() != 10 {
		t.Errorf("reopened len = %d", log2.Len())
	}
}

func TestAppendAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.log")
	key := mustKey(t)
	log1, err := OpenFS(chaos.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := log1.Append(sampleTx(t, key, "one")); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	log2, err := OpenFS(chaos.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.Append(sampleTx(t, key, "two")); err != nil {
		t.Fatal(err)
	}
	log2.Close()

	count := 0
	log3, err := OpenFS(chaos.OS(), path, func(*txn.Transaction) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if count != 2 {
		t.Errorf("records = %d, want 2", count)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.log")
	key := mustKey(t)
	log1, err := OpenFS(chaos.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := log1.Append(sampleTx(t, key, string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	log1.Close()

	// Simulate a crash mid-append: garbage tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xB1, 0x0C, 0x0D}); err != nil { // partial magic
		t.Fatal(err)
	}
	f.Close()

	count := 0
	log2, err := OpenFS(chaos.OS(), path, func(*txn.Transaction) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("replayed %d, want 3", count)
	}
	// The tail was truncated: appends go to a clean end and survive a
	// further reopen.
	if err := log2.Append(sampleTx(t, key, "post-tear")); err != nil {
		t.Fatal(err)
	}
	log2.Close()
	count = 0
	log3, err := OpenFS(chaos.OS(), path, func(*txn.Transaction) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	log3.Close()
	if count != 4 {
		t.Errorf("after tear repair: %d records, want 4", count)
	}
}

func TestCorruptRecordTreatedAsTear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.log")
	key := mustKey(t)
	log1, err := OpenFS(chaos.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := log1.Append(sampleTx(t, key, "good")); err != nil {
		t.Fatal(err)
	}
	if err := log1.Append(sampleTx(t, key, "will corrupt")); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	// Flip a byte in the second record's body (the very last byte of
	// the file is inside it).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	count := 0
	log2, err := OpenFS(chaos.OS(), path, func(*txn.Transaction) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if count != 1 {
		t.Errorf("replayed %d, want only the intact record", count)
	}
}

func TestReplayApplyErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.log")
	key := mustKey(t)
	log1, err := OpenFS(chaos.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := log1.Append(sampleTx(t, key, "x")); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	wantErr := errors.New("apply failed")
	if _, err := OpenFS(chaos.OS(), path, func(*txn.Transaction) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.log")
	log1, err := OpenFS(chaos.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	log1.Close()
	if err := log1.Append(sampleTx(t, mustKey(t), "late")); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	if err := log1.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestEmptyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.log")
	count := 0
	l, err := OpenFS(chaos.OS(), path, func(*txn.Transaction) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if count != 0 || l.Len() != 0 {
		t.Error("empty log replayed records")
	}
	if l.Path() != path {
		t.Error("path accessor wrong")
	}
}
