package store

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// fuzzLogBytes builds one valid v2 segment with n records, as mutation
// fodder for the fuzz corpus.
func fuzzLogBytes(n int) []byte {
	key, err := identity.Generate()
	if err != nil {
		panic(err)
	}
	out := make([]byte, segHeaderSize)
	putSegHeader(out, 0)
	for i := 0; i < n; i++ {
		tx := &txn.Transaction{
			Trunk:     hashutil.Sum([]byte("t")),
			Branch:    hashutil.Sum([]byte("b")),
			Timestamp: time.Unix(int64(i+1), 0),
			Kind:      txn.KindData,
			Payload:   []byte{byte(i)},
			Nonce:     uint64(i),
		}
		tx.Sign(key)
		rec, err := encodeRecord(tx.Encode())
		if err != nil {
			panic(err)
		}
		out = append(out, rec...)
	}
	return out
}

// fuzzBatchedLogBytes produces a segment through the real group-commit
// write path (AppendBatch + concurrent-shaped batches), so the corpus
// mutates bytes laid down exactly as a batching leader writes them.
func fuzzBatchedLogBytes() []byte {
	key, err := identity.Generate()
	if err != nil {
		panic(err)
	}
	fs := chaos.NewMemFS(7)
	l, err := OpenFS(fs, "tx.log", nil)
	if err != nil {
		panic(err)
	}
	for bi, n := range []int{1, 3, 2} {
		var batch []*txn.Transaction
		for i := 0; i < n; i++ {
			tx := &txn.Transaction{
				Trunk:     hashutil.Sum([]byte("t")),
				Branch:    hashutil.Sum([]byte("b")),
				Timestamp: time.Unix(int64(bi*10+i+1), 0),
				Kind:      txn.KindData,
				Payload:   []byte{byte(bi), byte(i)},
				Nonce:     uint64(i),
			}
			tx.Sign(key)
			batch = append(batch, tx)
		}
		if err := l.AppendBatch(batch); err != nil {
			panic(err)
		}
	}
	l.Close()
	data, err := fs.ReadFile("tx.log")
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzReplay feeds arbitrary bytes to the recovery path. Whatever the
// mutation — truncations, bit flips, forged headers, length-field
// attacks — replay must never panic and never admit a record whose
// bytes don't round-trip the CRC'd encoding (apply only sees records
// that passed magic+length+CRC+decode).
func FuzzReplay(f *testing.F) {
	valid := fuzzLogBytes(3)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-7])              // torn tail
	f.Add(valid[:segHeaderSize])             // header only
	f.Add(valid[segHeaderSize:])             // headerless pre-v2 shape (refused)
	f.Add(valid[:9])                         // torn segment header
	flipped := append([]byte(nil), valid...) // corrupt body byte
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped)
	huge := append([]byte(nil), valid...) // length-field attack
	binary.BigEndian.PutUint32(huge[segHeaderSize+4:], 0xFFFFFFF0)
	f.Add(huge)
	batched := fuzzBatchedLogBytes() // group-commit write shapes
	f.Add(batched)
	f.Add(batched[:len(batched)-11]) // crash mid-batch: torn batch tail

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := chaos.NewMemFS(1)
		fs.WriteFile("tx.log", data)
		applied := 0
		l, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
			// Every admitted record must be a well-formed transaction
			// whose canonical encoding frames back into a valid record.
			if _, rerr := encodeRecord(tx.Encode()); rerr != nil {
				t.Fatalf("admitted unencodable record: %v", rerr)
			}
			applied++
			return nil
		})
		if err != nil {
			return // rejecting a mutated log is fine; panicking is not
		}
		if l.Len() != applied {
			t.Fatalf("Len=%d but applied %d", l.Len(), applied)
		}
		// The survivor must accept appends: recovery leaves a live log.
		tx := &txn.Transaction{
			Trunk:     hashutil.Sum([]byte("t")),
			Branch:    hashutil.Sum([]byte("b")),
			Timestamp: time.Unix(99, 0),
			Kind:      txn.KindData,
			Payload:   []byte("probe"),
			Nonce:     1,
		}
		if err := l.Append(tx); err != nil {
			t.Fatalf("recovered log rejects append: %v", err)
		}
		l.Close()
	})
}
