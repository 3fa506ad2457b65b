package store

import (
	"bytes"
	"encoding/binary"
	"slices"
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
		if err := l.AppendBatch(encodings(batch)); err != nil {
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
// that passed magic+length+CRC+decode). The two ways in must agree on
// every input, record for record: the view-yielding replay a node boots
// on (OpenFSRuns) and OpenFS, through which bench's durability gate reads
// a journal — the same IDs in the same order, the same verdict, and the
// same stop offset and file after the open.
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
		runsFS := chaos.NewMemFS(1)
		runsFS.WriteFile("tx.log", data)
		var viewed []hashutil.Hash
		rl, rerr := OpenFSRuns(runsFS, "tx.log", func(run []txn.View, _ uint64) error {
			for _, v := range run {
				viewed = append(viewed, hashutil.Sum(v.Bytes()))
			}
			return nil
		})

		fs := chaos.NewMemFS(1)
		fs.WriteFile("tx.log", data)
		var ids []hashutil.Hash
		l, err := OpenFS(fs, "tx.log", func(tx *txn.Transaction) error {
			// Every admitted record must be a well-formed transaction
			// whose canonical encoding frames back into a valid record.
			if _, rerr := encodeRecord(tx.Encode()); rerr != nil {
				t.Fatalf("admitted unencodable record: %v", rerr)
			}
			tx.Invalidate() // identified from the decoded fields, re-encoded
			ids = append(ids, tx.ID())
			return nil
		})
		if (rerr == nil) != (err == nil) {
			t.Fatalf("the replay in runs says %v, OpenFS says %v", rerr, err)
		}
		if !slices.Equal(viewed, ids) {
			t.Fatalf("the replay in runs viewed %d records, OpenFS applied %d, not the same ones in the same order", len(viewed), len(ids))
		}
		if err != nil {
			return // rejecting a mutated log is fine; panicking is not
		}
		defer rl.Close()
		afterRuns, _ := runsFS.ReadFile("tx.log")
		after, _ := fs.ReadFile("tx.log")
		if rl.Bytes() != l.Bytes() || rl.Len() != l.Len() || !bytes.Equal(afterRuns, after) {
			t.Fatalf("the replay in runs stopped at %d bytes (%d records), OpenFS at %d (%d)", rl.Bytes(), rl.Len(), l.Bytes(), l.Len())
		}
		if l.Len() != len(ids) {
			t.Fatalf("Len=%d but applied %d", l.Len(), len(ids))
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
