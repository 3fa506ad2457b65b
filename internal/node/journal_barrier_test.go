package node_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// The submission edge's journal barrier, pinned from outside: what a
// Submit waits for, and what a dying disk does to the Submits waiting.

// submission is one Submit running on a goroutine of its own: done closes
// when it returns, and err is its error from then on.
type submission struct {
	done chan struct{}
	err  error
}

func submitAsync(full *node.FullNode, tx *txn.Transaction) *submission {
	s := &submission{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_, s.err = full.Submit(context.Background(), tx)
	}()
	return s
}

// TestSubmitReturnsAtItsOwnFlushWhileALaterFlushIsHeld: a Submit waits
// for the flush that covers its own record, not for the one after it. Two
// readings are submitted while the first one's flush is held; releasing
// that flush alone must return the first Submit while the second's flush
// is still held, and only releasing the second returns the second.
func TestSubmitReturnsAtItsOwnFlushWhileALaterFlushIsHeld(t *testing.T) {
	inBubble(t, testSubmitReturnsAtItsOwnFlushWhileALaterFlushIsHeld)
}
func testSubmitReturnsAtItsOwnFlushWhileALaterFlushIsHeld(t *testing.T) {
	dep := newTestDeployment(t)
	fs := newHeldFS(31)
	if _, err := dep.full.EnablePersistenceFS(fs, "gw.journal"); err != nil {
		t.Fatal(err)
	}
	defer dep.full.ClosePersistence()
	first := mineOwnTx(t, dep.full, "first")
	second := mineOwnTx(t, dep.full, "second")

	fs.hold()
	firstSub := submitAsync(dep.full, first)
	fs.waitBlocked(t) // the first reading's flush
	secondSub := submitAsync(dep.full, second)
	waitFor(t, "the second reading is attached behind the held flush", func() bool {
		return dep.full.Tangle().Contains(second.ID())
	})

	fs.release() // the first flush, and only it
	awaitReturn(t, "the first Submit, after its own flush", firstSub.done)
	fs.waitBlocked(t) // the second reading's flush
	if received(secondSub.done, 0) {
		t.Fatal("the second Submit returned before the flush covering its record")
	}
	fs.release()
	awaitReturn(t, "the second Submit, after its own flush", secondSub.done)
	fs.open()
	for i, s := range []*submission{firstSub, secondSub} {
		if s.err != nil {
			t.Errorf("Submit %d: %v", i+1, s.err)
		}
	}
}

// TestPoisonedJournalReleasesEveryWaiter: a flush that fails poisons the
// journal, and every Submit waiting on it — the one whose record was in
// the failing flush and the ones queued behind it — returns, and returns
// nil: the ledger holds the readings, and the supervisor restarts the
// node on the durable prefix. Each record queued counts one journal error
// and one journal latency sample, and so does a record the poisoned log
// refuses at the door.
func TestPoisonedJournalReleasesEveryWaiter(t *testing.T) {
	inBubble(t, testPoisonedJournalReleasesEveryWaiter)
}
func testPoisonedJournalReleasesEveryWaiter(t *testing.T) {
	dep := newTestDeployment(t)
	fs := newHeldFS(32)
	if _, err := dep.full.EnablePersistenceFS(fs, "gw.journal"); err != nil {
		t.Fatal(err)
	}
	defer dep.full.ClosePersistence()
	readings := make([]*txn.Transaction, 3)
	for i := range readings {
		readings[i] = mineOwnTx(t, dep.full, fmt.Sprintf("reading %d", i))
	}

	fs.hold()
	subs := []*submission{submitAsync(dep.full, readings[0])}
	fs.waitBlocked(t) // the first reading's flush
	for _, tx := range readings[1:] {
		subs = append(subs, submitAsync(dep.full, tx))
		waitFor(t, "a reading is attached behind the held flush", func() bool {
			return dep.full.Tangle().Contains(tx.ID())
		})
	}
	fs.InjectSyncError(nil)
	fs.open() // the held flush fails; the records queued behind it are refused
	for i, s := range subs {
		awaitReturn(t, fmt.Sprintf("Submit %d, waiting on the poisoned journal", i), s.done)
		if s.err != nil {
			t.Fatalf("Submit %d = %v, want nil (the ledger holds the reading)", i, s.err)
		}
	}
	if dep.full.JournalHealthy() {
		t.Fatal("journal healthy after a failed flush")
	}
	if got, want := dep.full.CountersView().JournalErrors.Value(), int64(len(readings)); got != want {
		t.Fatalf("JournalErrors = %d after a failed flush with %d records queued, want %d", got, want, want)
	}

	late := mineOwnTx(t, dep.full, "late")
	if _, err := dep.full.Submit(context.Background(), late); err != nil {
		t.Fatalf("Submit on a poisoned journal = %v, want nil", err)
	}
	want := len(readings) + 1
	if got := dep.full.CountersView().JournalErrors.Value(); got != int64(want) {
		t.Fatalf("JournalErrors = %d once the poisoned log refused one more record, want %d", got, want)
	}
	if got := dep.full.Pipeline().JournalLatency.Count(); got != want {
		t.Fatalf("JournalLatency holds %d samples, want one per record (%d)", got, want)
	}
}
