package tangle

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/txn"
)

// buildChain attaches a linear chain keeping the original transaction
// bytes, so tests can replay the exact pruned encodings.
func buildChain(t *testing.T, tg *Tangle, key *identity.KeyPair, vc *clock.Virtual, n int) []*txn.Transaction {
	t.Helper()
	var txs []*txn.Transaction
	last := tg.Genesis()[0]
	for i := 0; i < n; i++ {
		vc.Advance(time.Minute)
		tx := buildTx(t, key, last, last, fmt.Sprintf("chain-%d", i))
		info, err := tg.Attach(tx)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
		last = info.ID
	}
	return txs
}

// TestColdByteIdenticalDuplicateRejection pins the exact historical
// semantics the bounded snapshotted set must preserve: re-submitting
// the byte-identical encoding of a pruned transaction is a duplicate,
// and attaching a NEW transaction onto a pruned parent is a
// snapshotted-parent rejection — not an unknown parent, and never a
// silent re-admission.
func TestColdByteIdenticalDuplicateRejection(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 3
	tg, key := newTangle(t, cfg, vc)
	txs := buildChain(t, tg, key, vc, 20)

	if dropped := tg.Snapshot(vc.Now(), 5*time.Minute); dropped == 0 {
		t.Fatal("snapshot dropped nothing")
	}
	pruned := txs[0]
	if tg.Contains(pruned.ID()) {
		t.Skip("fixture did not prune the oldest tx")
	}

	// Byte-identical re-admission: decode the original encoding afresh
	// so no in-memory aliasing hides a semantic change.
	clone, err := txn.Decode(pruned.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Attach(clone); !errors.Is(err, ErrDuplicate) {
		t.Errorf("re-attach of pruned tx: err = %v, want ErrDuplicate", err)
	}

	// New child of a pruned parent.
	necro := buildTx(t, key, pruned.ID(), pruned.ID(), "necromancer")
	if _, err := tg.Attach(necro); !errors.Is(err, ErrSnapshottedParent) {
		t.Errorf("attach to pruned parent: err = %v, want ErrSnapshottedParent", err)
	}
}

// TestSnapshotEpochCoordinatesCutoff: two nodes holding the same ledger
// and pruning at different instants within the same epoch interval must
// cut at the same quantized boundary — identical drop counts, identical
// boundary roots. That shared boundary is what makes one node's
// snapshot manifest attachable on another.
func TestSnapshotEpochCoordinatesCutoff(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	key := mustKey(t)
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 3

	mk := func() (*Tangle, *clock.Virtual) {
		vc := clock.NewVirtual(start)
		tg, err := New(cfg, key.Public(), vc)
		if err != nil {
			t.Fatal(err)
		}
		return tg, vc
	}
	tgA, vcA := mk()
	tgB, vcB := mk()

	// Same genesis (same manager key), same traffic, same timeline.
	last := tgA.Genesis()[0]
	for i := 0; i < 30; i++ {
		vcA.Advance(time.Minute)
		vcB.Advance(time.Minute)
		tx := buildTx(t, key, last, last, fmt.Sprintf("shared-%d", i))
		infoA, err := tgA.Attach(tx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tgB.Attach(tx); err != nil {
			t.Fatal(err)
		}
		last = infoA.ID
	}

	// Node B compacts later than node A — as late as possible while its
	// cutoff still falls inside A's epoch bucket. Quantization must make
	// the two cuts identical despite the skew.
	const keep = 5 * time.Minute
	const interval = 10 * time.Minute
	nowA := vcA.Now()
	epoch := nowA.Add(-keep).Truncate(interval)
	nowB := epoch.Add(interval).Add(keep - time.Second) // cutoff 1s before the next boundary
	droppedA := tgA.SnapshotEpoch(nowA, keep, interval)
	vcB.Advance(nowB.Sub(vcB.Now()))
	droppedB := tgB.SnapshotEpoch(vcB.Now(), keep, interval)

	if droppedA == 0 {
		t.Fatal("epoch snapshot dropped nothing")
	}
	if droppedA != droppedB {
		t.Fatalf("drop counts diverge: A=%d B=%d", droppedA, droppedB)
	}
	bA, bB := tgA.BoundaryRoots(), tgB.BoundaryRoots()
	if len(bA) == 0 || len(bA) != len(bB) {
		t.Fatalf("boundary sizes diverge: A=%d B=%d", len(bA), len(bB))
	}
	for i := range bA {
		if bA[i] != bB[i] {
			t.Fatalf("boundary root %d diverges", i)
		}
	}
	if !tgA.ColdEpoch().Equal(tgB.ColdEpoch()) {
		t.Errorf("cold epochs diverge: A=%v B=%v", tgA.ColdEpoch(), tgB.ColdEpoch())
	}
}

// TestBootstrapAttachesLiveRegion drives the tangle half of a snapshot-
// shipped join: a fresh tangle seeded with a pruned peer's boundary
// roots attaches the peer's exported live region verbatim and converges
// on the identical live ID set — without ever seeing the pruned
// history. Strict parent checks must return the moment bootstrap ends.
func TestBootstrapAttachesLiveRegion(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := DefaultConfig()
	cfg.ConfirmationWeight = 3
	key := mustKey(t)
	seasoned, err := New(cfg, key.Public(), vc)
	if err != nil {
		t.Fatal(err)
	}
	buildChain(t, seasoned, key, vc, 40)
	if dropped := seasoned.Snapshot(vc.Now(), 5*time.Minute); dropped == 0 {
		t.Fatal("snapshot dropped nothing")
	}

	fresh, err := New(cfg, key.Public(), vc)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.BeginBootstrap(seasoned.BoundaryRoots(), seasoned.ColdEpoch()); err != nil {
		t.Fatal(err)
	}
	for _, tx := range seasoned.Export() {
		if tx.Kind == txn.KindGenesis {
			continue
		}
		if _, err := fresh.Attach(tx); err != nil && !errors.Is(err, ErrDuplicate) {
			t.Fatalf("bootstrap attach %s: %v", tx.ID().Short(), err)
		}
	}
	fresh.EndBootstrap()

	want := make(map[hashutil.Hash]struct{})
	for _, tx := range seasoned.Export() {
		want[tx.ID()] = struct{}{}
	}
	if got := fresh.Size(); got != len(want) {
		t.Fatalf("bootstrapped size = %d, want %d", got, len(want))
	}
	for id := range want {
		if !fresh.Contains(id) {
			t.Fatalf("live tx %s missing after bootstrap", id.Short())
		}
	}
	if !fresh.ColdEpoch().Equal(seasoned.ColdEpoch()) {
		t.Error("bootstrap did not carry the cold epoch")
	}

	// Outside bootstrap mode an unknown parent stays an error even
	// though it matches nothing cold.
	stray := buildTx(t, key, hashutil.Sum([]byte("nowhere")), hashutil.Sum([]byte("nowhere")), "stray")
	if _, err := fresh.Attach(stray); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("post-bootstrap stray attach: err = %v, want ErrUnknownParent", err)
	}
}

// TestBeginBootstrapRequiresFreshTangle: bootstrap replaces history, so
// a tangle with any non-genesis vertex (or any pruned history) refuses.
func TestBeginBootstrapRequiresFreshTangle(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	tg, key := newTangle(t, DefaultConfig(), vc)
	attachOne(t, tg, key, "history")
	err := tg.BeginBootstrap([]hashutil.Hash{hashutil.Sum([]byte("b"))}, vc.Now())
	if !errors.Is(err, ErrNotFresh) {
		t.Errorf("err = %v, want ErrNotFresh", err)
	}
}

// TestResidentVerticesStayBounded is the memory regression guard: under
// continuous traffic with periodic snapshots, the resident vertex count
// must plateau at O(keep-window), however long the node runs, and the
// boundary set must stay O(frontier) — for a linear chain, a handful of
// roots, NOT a set growing with pruned history. It holds for both ways a
// node prunes: Snapshot with the in-memory cold set of a node without
// persistence, and the epoch grid a persisting node cuts on (SnapshotEpoch
// with the interval equal to the keep window) over an on-disk cold index,
// aged through 20 keep windows.
func TestResidentVerticesStayBounded(t *testing.T) {
	for _, tc := range []struct {
		name      string
		step      time.Duration // virtual time between chain steps
		rounds    int
		perRound  int
		keep      time.Duration
		coldIndex bool
	}{
		{name: "snapshot-cold-set", step: 30 * time.Second, rounds: 12, perRound: 50, keep: 5 * time.Minute},
		{name: "epoch-cold-index", step: time.Second, rounds: 20, perRound: 60, keep: time.Minute, coldIndex: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
			cfg := DefaultConfig()
			cfg.ConfirmationWeight = 3
			tg, key := newTangle(t, cfg, vc)
			snapshot := func() { tg.Snapshot(vc.Now(), tc.keep) }
			if tc.coldIndex {
				cold, err := store.OpenColdIndex(chaos.NewMemFS(1), "resident.cold")
				if err != nil {
					t.Fatal(err)
				}
				defer cold.Close()
				if err := tg.SetColdStore(cold); err != nil {
					t.Fatal(err)
				}
				snapshot = func() { tg.SnapshotEpoch(vc.Now(), tc.keep, tc.keep) }
			}

			last := tg.Genesis()[0]
			maxResident, maxBoundary := 0, 0
			for r := 0; r < tc.rounds; r++ {
				for i := 0; i < tc.perRound; i++ {
					vc.Advance(tc.step)
					tx := buildTx(t, key, last, last, fmt.Sprintf("r%d-%d", r, i))
					info, err := tg.Attach(tx)
					if err != nil {
						t.Fatal(err)
					}
					last = info.ID
				}
				snapshot()
				if s := tg.Size(); s > maxResident {
					maxResident = s
				}
				if b := tg.BoundaryCount(); b > maxBoundary {
					maxBoundary = b
				}
			}
			total := tc.rounds * tc.perRound
			if tg.SnapshottedCount() < total/2 {
				t.Fatalf("guard fixture barely pruned: %d of %d", tg.SnapshottedCount(), total)
			}
			// A round spans at least one keep window; one round of slack
			// (the epoch grid's cut trails now by up to two windows) plus the
			// unsettled tail bounds the plateau far below total history.
			if bound := 2*tc.perRound + 20; maxResident > bound {
				t.Errorf("resident vertices peaked at %d, want ≤ %d (history %d)", maxResident, bound, total)
			}
			if maxBoundary > 8 {
				t.Errorf("boundary grew to %d roots on a linear chain", maxBoundary)
			}
			// The gauges agree with the structures they mirror.
			m := tg.Metrics()
			if got, want := int(m.ResidentVertices.Value()), tg.Size(); got != want {
				t.Errorf("ResidentVertices gauge = %d, want %d", got, want)
			}
			if got, want := int(m.ColdTotal.Value()), tg.SnapshottedCount(); got != want {
				t.Errorf("ColdTotal gauge = %d, want %d", got, want)
			}
		})
	}
}

// TestBytesPerAttachedVertex is the companion guard on the size of one
// resident vertex: what the heap still holds per transaction once a
// relay has decoded it from the wire, attached it and let go of the
// decoded value. The ledger keeps the transaction's canonical encoding
// and nothing decoded from it — one 128-byte vertex views those bytes
// (the struct size is asserted here too) — and its attachment-order
// indexes and approver lists hold vertices by pointer. On go1.24
// linux/amd64 this fixture measured 1 214 bytes a vertex with three
// fresh slices per attach and 32-byte IDs in every index, 867 with a
// decoded txn.Transaction (192 B) and its encoding cache (80 B) beside
// the encoding and a 160-byte vertex, and measures 563 now: the ≈ 288 B
// encoding, the vertex, and ≈ 147 B of map slot, index words and
// approver lists (DESIGN.md §14 has the table).
func TestBytesPerAttachedVertex(t *testing.T) {
	const (
		n     = 4000
		bound = 600 // bytes per vertex; see above
	)
	if size := unsafe.Sizeof(vertex{}); size > 128 {
		t.Errorf("vertex struct is %d bytes, want ≤ 128 (one allocator size class)", size)
	}
	tg, key := newTangle(t, DefaultConfig(), nil)
	payload := strings.Repeat("r", 64) // the benchmark's reading size

	// Encodings first, so that the measured interval allocates only what
	// attaching retains (plus garbage the collection below removes).
	wire := make([][]byte, n)
	trunk, branch := tg.Genesis()[0], tg.Genesis()[1]
	for i := range wire {
		tx := buildTx(t, key, trunk, branch, fmt.Sprintf("%s%06d", payload, i))
		wire[i] = tx.Encode()
		trunk, branch = tx.ID(), trunk
	}

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for _, raw := range wire {
		tx, err := txn.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tg.Attach(tx); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	perVertex := (after - before) / n
	t.Logf("%d bytes retained per attached vertex", perVertex)
	if perVertex > bound {
		t.Errorf("%d bytes retained per attached vertex, want ≤ %d", perVertex, bound)
	}
	runtime.KeepAlive(tg)
	runtime.KeepAlive(wire)
}
