package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// runsFixture writes n records and, when torn, half a record more.
func runsFixture(t *testing.T, n int, torn bool) (fs *chaos.MemFS, ids []string) {
	t.Helper()
	fs = chaos.NewMemFS(9)
	key := mustKey(t)
	txs := make([]*txn.Transaction, n)
	for i := range txs {
		txs[i] = sampleTx(t, key, fmt.Sprintf("record %d", i))
		ids = append(ids, txs[i].ID().Hex())
	}
	l, err := OpenFS(fs, "tx.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(encodings(txs)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if torn {
		rec, err := encodeRecord(sampleTx(t, key, "torn").Encode())
		if err != nil {
			t.Fatal(err)
		}
		whole, err := fs.ReadFile("tx.log")
		if err != nil {
			t.Fatal(err)
		}
		fs.WriteFile("tx.log", append(whole, rec[:len(rec)/2]...))
	}
	return fs, ids
}

// TestOpenFSRunsHandsOverRunsThenTheEnd: every intact record, in order,
// ReplayRun at a time in slices the caller may keep, then one empty run —
// while a torn tail is still on the disk — and only then the cut.
func TestOpenFSRunsHandsOverRunsThenTheEnd(t *testing.T) {
	const n = 2*ReplayRun + 7
	fs, ids := runsFixture(t, n, true)
	torn, err := fs.ReadFile("tx.log")
	if err != nil {
		t.Fatal(err)
	}
	var (
		kept  [][]txn.View
		sizes []int
		ended bool
	)
	l, err := OpenFSRuns(fs, "tx.log", func(run []txn.View, gen uint64) error {
		if ended {
			t.Error("a run after the empty run")
		}
		sizes = append(sizes, len(run))
		if len(run) > 0 {
			kept = append(kept, run)
			return nil
		}
		ended = true
		if now, _ := fs.ReadFile("tx.log"); !bytes.Equal(now, torn) {
			t.Error("the torn tail was cut before the caller was told the journal had ended")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if want := []int{ReplayRun, ReplayRun, 7, 0}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("runs of %v records, want %v", sizes, want)
	}
	var got []string
	for _, run := range kept { // read after the open: nothing was overwritten
		for _, v := range run {
			got = append(got, hashutil.Sum(v.Bytes()).Hex())
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Errorf("the runs hold %d records out of order or overwritten, want the journal's %d in order", len(got), len(ids))
	}
	if l.Len() != n || l.Stats().TornBytes == 0 {
		t.Errorf("log holds %d records with %d torn bytes, want %d and a cut tail", l.Len(), l.Stats().TornBytes, n)
	}
	if now, _ := fs.ReadFile("tx.log"); len(now) >= len(torn) {
		t.Error("the torn tail is still there after the open")
	}
}

// TestOpenFSRunsRefusalAtTheEndLeavesTheFile: a caller working a run
// behind may refuse a record only when told the journal has ended; the
// open fails and the file — torn tail and all — is as it was found.
func TestOpenFSRunsRefusalAtTheEndLeavesTheFile(t *testing.T) {
	fs, _ := runsFixture(t, ReplayRun+3, true)
	before, err := fs.ReadFile("tx.log")
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("the last record does not check")
	_, err = OpenFSRuns(fs, "tx.log", func(run []txn.View, gen uint64) error {
		if len(run) == 0 {
			return refused
		}
		return nil
	})
	if !errors.Is(err, refused) {
		t.Fatalf("open = %v, want the caller's refusal", err)
	}
	if after, _ := fs.ReadFile("tx.log"); !bytes.Equal(before, after) {
		t.Error("the refused journal was modified")
	}
}

// appendJunkRecord ends the journal with a record whose checksum is good
// over bytes that are no transaction.
func appendJunkRecord(t *testing.T, fs *chaos.MemFS) {
	t.Helper()
	whole, err := fs.ReadFile("tx.log")
	if err != nil {
		t.Fatal(err)
	}
	junk := []byte("not a transaction")
	header := make([]byte, headerSize)
	binary.BigEndian.PutUint32(header[0:4], recordMagic)
	binary.BigEndian.PutUint32(header[4:8], uint32(len(junk)))
	binary.BigEndian.PutUint32(header[8:12], crc32.Checksum(junk, castagnoli))
	fs.WriteFile("tx.log", append(append(whole, header...), junk...))
}

// TestOpenFSRunsJudgesWhatPrecedesAnUndecodableRecord: the partial run
// ahead of a record that does not decode is handed over and then ended
// with the empty run, so a caller working a run behind names a bad record
// in it rather than the open reporting the later one.
func TestOpenFSRunsJudgesWhatPrecedesAnUndecodableRecord(t *testing.T) {
	for _, refuse := range []bool{false, true} {
		fs, _ := runsFixture(t, ReplayRun+3, false)
		appendJunkRecord(t, fs)
		refused := errors.New("a record in the last run does not check")
		var sizes []int
		_, err := OpenFSRuns(fs, "tx.log", func(run []txn.View, gen uint64) error {
			sizes = append(sizes, len(run))
			if len(run) == 0 && refuse {
				return refused
			}
			return nil
		})
		if want := []int{ReplayRun, 3, 0}; fmt.Sprint(sizes) != fmt.Sprint(want) {
			t.Errorf("runs of %v records, want %v", sizes, want)
		}
		if want := map[bool]error{false: ErrCorruptLog, true: refused}[refuse]; !errors.Is(err, want) {
			t.Errorf("open = %v, want %v", err, want)
		}
	}
}

// TestOpenFSGenStaysPerRecord: the per-record contract OpenFS — what
// bench and its gate read journals through — wraps: each record applied
// before the next is read, so an undecodable one is met with everything
// before it applied.
func TestOpenFSGenStaysPerRecord(t *testing.T) {
	fs, ids := runsFixture(t, 5, false)
	appendJunkRecord(t, fs)
	var applied []string
	_, err := OpenFSGen(fs, "tx.log", func(v txn.View, gen uint64) error {
		applied = append(applied, hashutil.Sum(v.Bytes()).Hex())
		return nil
	})
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("open = %v, want ErrCorruptLog for the undecodable record", err)
	}
	if fmt.Sprint(applied) != fmt.Sprint(ids) {
		t.Errorf("%d records applied before the undecodable one, want the %d ahead of it", len(applied), len(ids))
	}
}
