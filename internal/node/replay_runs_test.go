package node_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

const replayJournal = "gw.journal"

// replayFixture is one gateway's first life, journaled, imaged twice: as
// a generation-0 journal longer than two replay runs, and later as a
// compacted generation-1 segment — boundary records first — with a run's
// worth appended behind it.
type replayFixture struct {
	mgrKey   *identity.KeyPair
	spender  identity.Address // minted before the journal existed: mint it again before a replay
	accounts []identity.Address
	gen0     *chaos.MemFS
	gen1     *chaos.MemFS
	now      time.Time // the clock when the last image was taken
}

// spenderMint is the balance the spender holds outside the journal.
const spenderMint = 100

// sharedReplayFixture builds the fixture once for the tests that replay
// it: every one of them works on copies of its disk images.
func sharedReplayFixture(t *testing.T) *replayFixture {
	t.Helper()
	replayFixtureOnce.Do(func() { replayFixtureBuilt = buildReplayFixture(t) })
	if replayFixtureBuilt == nil {
		t.Fatal("the replay fixture failed to build in an earlier test")
	}
	return replayFixtureBuilt
}

var (
	replayFixtureOnce  sync.Once
	replayFixtureBuilt *replayFixture
)

func buildReplayFixture(t *testing.T) *replayFixture {
	t.Helper()
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	mem := chaos.NewMemFS(61)
	mgrKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	full, err := node.NewFull(node.FullConfig{
		Key: mgrKey, Role: identity.RoleManager, ManagerPub: mgrKey.Public(),
		Credit: testParams(), Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = full.Close(); _ = full.ClosePersistence() })
	if _, err := full.EnablePersistenceFS(mem, replayJournal); err != nil {
		t.Fatal(err)
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatal(err)
	}
	authorize := func(devices ...*node.LightNode) {
		for _, d := range devices {
			mgr.AuthorizeDevice(d.Key().Public(), d.Key().BoxPublic())
		}
		if _, err := mgr.PublishAuthorization(ctx); err != nil {
			t.Fatal(err)
		}
	}
	readings := func(n int, devices ...*node.LightNode) {
		for i := 0; i < n; i++ {
			clk.Advance(2 * time.Second)
			if _, err := devices[i%len(devices)].PostReading(ctx, []byte(fmt.Sprintf("reading %d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	alice, bob, carol, spender := newTestDevice(t, full, clk), newTestDevice(t, full, clk), newTestDevice(t, full, clk), newTestDevice(t, full, clk)
	fx := &replayFixture{mgrKey: mgrKey, spender: spender.Address()}
	for _, d := range []*node.LightNode{alice, bob, carol, spender} {
		fx.accounts = append(fx.accounts, d.Address())
	}

	// The first list, a transfer and the same sequence number spent again,
	// then a run and more of readings that confirm one of the two.
	authorize(alice, bob, spender)
	full.Tokens().Mint(spender.Address(), spenderMint)
	if _, err := spender.Transfer(ctx, bob.Address(), 40); err != nil {
		t.Fatal(err)
	}
	if _, err := spender.SubmitRaw(ctx, txn.KindTransfer, txn.EncodeTransfer(txn.Transfer{To: carol.Address(), Amount: 40, Seq: 0})); err != nil {
		t.Fatalf("the double spend is evidence, not a reject: %v", err)
	}
	readings(store.ReplayRun+40, alice, bob)
	// The second list in the middle of the data, then past the second run.
	authorize(carol)
	readings(store.ReplayRun+40, alice, bob, carol)
	fx.gen0 = mem.Clone()

	// Compact everything but the last minutes away, rewrite the journal,
	// and write more than a run behind the rewritten segment.
	if dropped, _, err := full.Compact(10 * time.Minute); err != nil {
		t.Fatal(err)
	} else if dropped == 0 {
		t.Fatal("compact dropped nothing")
	}
	readings(store.ReplayRun, alice, bob, carol)
	fx.gen1, fx.now = mem.Clone(), clk.Now()
	return fx
}

// reboot builds the gateway's next life, with what it holds outside the
// journal, on a clock standing where the fixture's stopped.
func (fx *replayFixture) reboot(t *testing.T) *node.FullNode {
	t.Helper()
	full, err := node.NewFull(node.FullConfig{
		Key: fx.mgrKey, Role: identity.RoleManager, ManagerPub: fx.mgrKey.Public(),
		Credit: testParams(), Clock: clock.NewVirtual(fx.now),
	})
	if err != nil {
		t.Fatal(err)
	}
	full.Tokens().Mint(fx.spender, spenderMint)
	t.Cleanup(func() { _ = full.Close(); _ = full.ClosePersistence() })
	return full
}

// journalRecords reads the journal on a copy of fs.
func journalRecords(t *testing.T, fs *chaos.MemFS) (txs []*txn.Transaction, generation uint64) {
	t.Helper()
	log, err := store.OpenFS(fs.Clone(), replayJournal, func(tx *txn.Transaction) error {
		txs = append(txs, tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	return txs, log.Generation()
}

// TestReplayInRunsMatchesPerRecordReplay replays the same journals through
// EnablePersistenceFS — runs verified across the pool, committed a run
// behind — and through the record-at-a-time path it replaced, kept in
// export_test.go as the oracle, and requires the two nodes to be
// indistinguishable: order, status and weight of every transaction,
// credit (and its parity with the rescan), the registry and its retained
// versions, token balances, the snapshot boundary.
func TestReplayInRunsMatchesPerRecordReplay(t *testing.T) {
	fx := sharedReplayFixture(t)
	for name, image := range map[string]*chaos.MemFS{"generation-0": fx.gen0, "generation-1": fx.gen1} {
		t.Run(name, func(t *testing.T) {
			records, generation := journalRecords(t, image)
			if wantGen := map[string]uint64{"generation-0": 0, "generation-1": 1}[name]; generation != wantGen {
				t.Fatalf("the fixture's journal is generation %d, want %d", generation, wantGen)
			}
			if len(records) <= store.ReplayRun {
				t.Fatalf("the fixture's journal holds %d records: not more than one run of %d", len(records), store.ReplayRun)
			}
			inRuns, perRecord := fx.reboot(t), fx.reboot(t)
			replayed, err := inRuns.EnablePersistenceFS(image.Clone(), replayJournal)
			if err != nil {
				t.Fatalf("replay in runs: %v", err)
			}
			if replayed != len(records) {
				t.Errorf("replayed %d of %d records", replayed, len(records))
			}
			if err := perRecord.ReplayPerRecord(image.Clone(), replayJournal); err != nil {
				t.Fatalf("replay record by record: %v", err)
			}

			ids := inRuns.Tangle().OrderedIDs(0, 1<<20)
			if want := perRecord.Tangle().OrderedIDs(0, 1<<20); !reflect.DeepEqual(ids, want) {
				t.Fatalf("attachment order differs: %d transactions against %d", len(ids), len(want))
			}
			for _, id := range ids {
				got, err := inRuns.InfoOf(id)
				if err != nil {
					t.Fatal(err)
				}
				want, err := perRecord.InfoOf(id)
				if err != nil {
					t.Fatal(err)
				}
				if got.Status != want.Status || got.CumulativeWeight != want.CumulativeWeight {
					t.Errorf("%s: status %v weight %d in runs, %v %d record by record",
						id.Short(), got.Status, got.CumulativeWeight, want.Status, want.CumulativeWeight)
				}
			}
			if got, want := inRuns.Tangle().SnapshottedCount(), perRecord.Tangle().SnapshottedCount(); got != want {
				t.Errorf("snapshot boundary: %d in runs, %d record by record", got, want)
			}
			for _, addr := range fx.accounts {
				ledger := inRuns.Engine().Ledger()
				got, want := ledger.CreditOf(addr, fx.now), perRecord.Engine().Ledger().CreditOf(addr, fx.now)
				if got != want {
					t.Errorf("credit of %s: %+v in runs, %+v record by record", addr.Short(), got, want)
				}
				if got, want := len(ledger.Events(addr)), len(perRecord.Engine().Ledger().Events(addr)); got != want {
					t.Errorf("punishments of %s: %d in runs, %d record by record", addr.Short(), got, want)
				}
				if got, want := inRuns.Tokens().Balance(addr), perRecord.Tokens().Balance(addr); got != want {
					t.Errorf("balance of %s: %d in runs, %d record by record", addr.Short(), got, want)
				}
			}
			a, b := inRuns.Registry(), perRecord.Registry()
			if a.Seq() != b.Seq() || !reflect.DeepEqual(a.VersionSeqs(), b.VersionSeqs()) || !reflect.DeepEqual(a.Devices(), b.Devices()) {
				t.Errorf("registry: seq %d versions %v in runs, seq %d versions %v record by record",
					a.Seq(), a.VersionSeqs(), b.Seq(), b.VersionSeqs())
			}
			if name == "generation-0" {
				if a.Seq() != 2 {
					t.Errorf("registry at list %d, want both lists replayed", a.Seq())
				}
				if len(inRuns.Engine().Ledger().Events(fx.spender)) == 0 {
					t.Error("the double spend in the journal punished nobody")
				}
				if got := inRuns.Tokens().Balance(fx.spender); got != spenderMint-40 {
					t.Errorf("the spender holds %d, want %d: one of the two spends settled", got, spenderMint-40)
				}
			}
		})
	}
}

// TestReplayInRunsRefusesByName: a record that does not check — a flipped
// signature byte, wherever in a run it falls — and a generation-0 record
// with no parent here each end the boot with that record named and the
// journal as it was found, exactly as when records were taken one by one.
func TestReplayInRunsRefusesByName(t *testing.T) {
	fx := sharedReplayFixture(t)
	records, _ := journalRecords(t, fx.gen0)
	journalOf := func(t *testing.T, journal ...*txn.Transaction) (*chaos.MemFS, []byte) {
		t.Helper()
		mem := chaos.NewMemFS(62)
		writeJournal(t, mem, replayJournal, journal...)
		raw, err := mem.ReadFile(replayJournal)
		if err != nil {
			t.Fatal(err)
		}
		return mem, raw
	}
	refuse := func(t *testing.T, mem *chaos.MemFS, culprit *txn.Transaction, want error) {
		t.Helper()
		before, _ := mem.ReadFile(replayJournal)
		_, err := fx.reboot(t).EnablePersistenceFS(mem, replayJournal)
		if !errors.Is(err, want) || !strings.Contains(err.Error(), "record "+culprit.ID().Short()) {
			t.Fatalf("boot = %v; want %v naming record %s", err, want, culprit.ID().Short())
		}
		if after, _ := mem.ReadFile(replayJournal); !bytes.Equal(before, after) {
			t.Error("the refused journal was modified")
		}
	}
	forge := func(at int) *txn.Transaction {
		forged := records[at].Clone()
		forged.Signature[at%len(forged.Signature)] ^= 0x04
		forged.Invalidate()
		return forged
	}
	run := store.ReplayRun
	for _, at := range []int{0, run / 2, run - 1, run, run + 1, len(records) - 1} {
		t.Run(fmt.Sprintf("flipped-signature-at-%d", at), func(t *testing.T) {
			forged := forge(at)
			mem, _ := journalOf(t, append(append(append([]*txn.Transaction(nil), records[:at]...), forged), records[at+1:]...)...)
			refuse(t, mem, forged, txn.ErrBadTxSignature)
		})
	}
	// The forged record sits in a run that an undecodable record — its
	// checksum good, its body no transaction — cuts short: the forged one
	// is still judged, and named, ahead of the file's own complaint.
	t.Run("flipped-signature-before-an-undecodable-record", func(t *testing.T) {
		forged := forge(run + 1)
		journal := append(append([]*txn.Transaction(nil), records[:run+1]...), forged, records[run+2], records[run+3])
		_, upToLast := journalOf(t, journal[:len(journal)-1]...)
		mem, raw := journalOf(t, journal...)
		const headerSize, crcAt = 12, 8 // store's record header: magic, length, CRC-32C
		body := raw[len(upToLast)+headerSize:]
		body[0] ^= 0xFF // the transaction encoding's magic
		binary.BigEndian.PutUint32(raw[len(upToLast)+crcAt:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		mem.WriteFile(replayJournal, raw)
		refuse(t, mem, forged, txn.ErrBadTxSignature)
	})
	for _, at := range []int{run / 2, run, run + run/2} {
		t.Run(fmt.Sprintf("parentless-at-%d", at), func(t *testing.T) {
			nowhere := hashutil.Sum([]byte("a parent no journal here holds"))
			foreign := craftTx(fx.mgrKey, txn.KindData, []byte("foreign"), nowhere, nowhere, fx.now, testParams().MinDifficulty)
			mem, _ := journalOf(t, append(append(append([]*txn.Transaction(nil), records[:at]...), foreign), records[at:]...)...)
			refuse(t, mem, foreign, tangle.ErrUnknownParent)
		})
	}
}

// TestReplayInRunsTornTailMidRun: a journal torn in the middle of a record
// in the middle of a run replays every record before the tear — the ones
// of the run the tear cut short included — and is cut there.
func TestReplayInRunsTornTailMidRun(t *testing.T) {
	fx := sharedReplayFixture(t)
	records, _ := journalRecords(t, fx.gen0)
	whole, err := fx.gen0.ReadFile(replayJournal)
	if err != nil {
		t.Fatal(err)
	}
	keep := store.ReplayRun + store.ReplayRun/3
	prefix := chaos.NewMemFS(63)
	writeJournal(t, prefix, replayJournal, records[:keep]...)
	intact, err := prefix.ReadFile(replayJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(whole, intact) {
		t.Fatal("a journal of the first records is not a prefix of the journal")
	}
	torn := chaos.NewMemFS(64)
	torn.WriteFile(replayJournal, whole[:len(intact)+len(records[keep].Encode())/2])

	full := fx.reboot(t)
	replayed, err := full.EnablePersistenceFS(torn, replayJournal)
	if err != nil {
		t.Fatalf("boot on a torn journal: %v", err)
	}
	if replayed != keep {
		t.Errorf("replayed %d records, want the %d before the tear", replayed, keep)
	}
	for i, tx := range records[:keep] {
		if !full.Tangle().Contains(tx.ID()) {
			t.Fatalf("record %d of the intact prefix is not in the ledger", i)
		}
	}
	if full.Tangle().Contains(records[keep].ID()) {
		t.Error("the torn record is in the ledger")
	}
	if stats, _, _ := full.JournalStats(); stats.TornBytes == 0 {
		t.Error("no torn tail was reported")
	}
	if after, _ := torn.ReadFile(replayJournal); !bytes.Equal(after, intact) {
		t.Errorf("the journal is %d bytes after the boot, want the %d of the intact prefix", len(after), len(intact))
	}
}
