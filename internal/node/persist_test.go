package node_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/quality"
)

func TestPersistenceRestartRestoresLedger(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "gateway.log")

	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	deviceKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}

	boot := func() (*node.Manager, *node.FullNode, int) {
		full, err := node.NewFull(node.FullConfig{
			Key:        managerKey,
			Role:       identity.RoleManager,
			ManagerPub: managerKey.Public(),
			Credit:     testParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := full.EnablePersistence(path)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := node.NewManager(full)
		if err != nil {
			t.Fatal(err)
		}
		return mgr, full, replayed
	}

	// First life: authorize, post readings, transfer.
	mgr, full, replayed := boot()
	if replayed != 0 {
		t.Fatalf("fresh boot replayed %d", replayed)
	}
	device, err := node.NewLight(node.LightConfig{Key: deviceKey, Gateway: full})
	if err != nil {
		t.Fatal(err)
	}
	mgr.AuthorizeDevice(deviceKey.Public(), deviceKey.BoxPublic())
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	var lastID [32]byte
	for i := 0; i < 5; i++ {
		res, err := device.PostReading(ctx, []byte("persisted"))
		if err != nil {
			t.Fatal(err)
		}
		lastID = res.Info.ID
	}
	sizeBefore := full.Tangle().Size()
	diffBefore := full.DifficultyFor(deviceKey.Address())
	if err := full.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	// Second life: everything is back.
	_, full2, replayed2 := boot()
	if replayed2 != 6 { // auth list + 5 readings
		t.Errorf("replayed = %d, want 6", replayed2)
	}
	if got := full2.Tangle().Size(); got != sizeBefore {
		t.Errorf("size after restart = %d, want %d", got, sizeBefore)
	}
	if !full2.Tangle().Contains(lastID) {
		t.Error("last reading lost across restart")
	}
	if !full2.Registry().IsAuthorizedDevice(deviceKey.Address()) {
		t.Error("authorization lost across restart")
	}
	if got := full2.DifficultyFor(deviceKey.Address()); got > diffBefore {
		t.Errorf("credit history lost: difficulty %d > %d", got, diffBefore)
	}
	// And the restarted node keeps serving + journaling.
	device2, err := node.NewLight(node.LightConfig{Key: deviceKey, Gateway: full2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := device2.PostReading(ctx, []byte("after restart")); err != nil {
		t.Fatalf("post after restart: %v", err)
	}
	if err := full2.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	// Third life sees the post-restart record too.
	_, _, replayed3 := boot()
	if replayed3 != 7 {
		t.Errorf("third boot replayed %d, want 7", replayed3)
	}
}

func TestEnablePersistenceTwice(t *testing.T) {
	dep := newTestDeployment(t)
	path := filepath.Join(t.TempDir(), "x.log")
	if _, err := dep.full.EnablePersistence(path); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.full.EnablePersistence(path); err == nil {
		t.Error("second enable accepted")
	}
	if err := dep.full.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	if err := dep.full.ClosePersistence(); !errors.Is(err, node.ErrNotPersistent) {
		t.Errorf("close without journal: %v", err)
	}
}

func TestPersistenceForeignLogRejected(t *testing.T) {
	// A log written under a different manager (different genesis) must
	// not replay: parents are unknown.
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "foreign.log")

	depA := newTestDeployment(t)
	if _, err := depA.full.EnablePersistence(path); err != nil {
		t.Fatal(err)
	}
	device := newTestDevice(t, depA.full, nil)
	depA.mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := depA.mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if err := depA.full.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	depB := newTestDeployment(t) // different manager key → different genesis
	if _, err := depB.full.EnablePersistence(path); err == nil {
		t.Error("foreign log replayed cleanly")
	}
}

func TestQualityPunishmentSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "q.log")
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	deviceKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	boot := func() (*node.Manager, *node.FullNode) {
		full, err := node.NewFull(node.FullConfig{
			Key:        managerKey,
			Role:       identity.RoleManager,
			ManagerPub: managerKey.Public(),
			Credit:     testParams(),
			Quality:    quality.NewValidator(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.EnablePersistence(path); err != nil {
			t.Fatal(err)
		}
		mgr, err := node.NewManager(full)
		if err != nil {
			t.Fatal(err)
		}
		return mgr, full
	}

	mgr, full := boot()
	device, err := node.NewLight(node.LightConfig{Key: deviceKey, Gateway: full})
	if err != nil {
		t.Fatal(err)
	}
	mgr.AuthorizeDevice(deviceKey.Public(), deviceKey.BoxPublic())
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := device.PostReading(ctx, []byte("sensor=temperature;seq=1;t=1;value=9999")); err != nil {
		t.Fatal(err)
	}
	punished := full.DifficultyFor(deviceKey.Address())
	if punished <= testParams().InitialDifficulty {
		t.Fatalf("no punishment applied: %d", punished)
	}
	if err := full.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	_, full2 := boot()
	events := full2.Engine().Ledger().Events(deviceKey.Address())
	found := false
	for _, ev := range events {
		if ev.Behaviour == core.BehaviourProtocol {
			found = true
		}
	}
	if !found {
		t.Error("quality punishment not re-derived on replay")
	}
	if got := full2.DifficultyFor(deviceKey.Address()); got <= testParams().InitialDifficulty {
		t.Errorf("difficulty after restart = %d, want punished", got)
	}
	if err := full2.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactBoundsMemory(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        managerKey,
		Role:       identity.RoleManager,
		ManagerPub: managerKey.Public(),
		Credit:     testParams(),
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatal(err)
	}
	device := newTestDevice(t, full, clk)
	mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		clk.Advance(time.Minute)
		if _, err := device.PostReading(ctx, []byte("old data")); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := full.Tangle().Size()
	tangleDropped, _, err := full.Compact(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tangleDropped == 0 {
		t.Fatal("compact dropped nothing")
	}
	if got := full.Tangle().Size(); got != sizeBefore-tangleDropped {
		t.Errorf("size = %d after dropping %d from %d", got, tangleDropped, sizeBefore)
	}
	// The node keeps serving after compaction.
	if _, err := device.PostReading(ctx, []byte("after compaction")); err != nil {
		t.Fatalf("post after compact: %v", err)
	}
}

// TestCompactedJournalRecovers pins the crash-recovery path the
// supervisor's compaction loop depends on: after Compact, the rewritten
// journal's earliest records reference parents that the snapshot folded
// away, and a restarted node must replay them as pruned-boundary roots
// rather than abort on unknown parents.
func TestCompactedJournalRecovers(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	fs := chaos.NewMemFS(42)
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	boot := func() (*node.FullNode, *node.Manager, int) {
		full, err := node.NewFull(node.FullConfig{
			Key:        managerKey,
			Role:       identity.RoleManager,
			ManagerPub: managerKey.Public(),
			Credit:     testParams(),
			Clock:      clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := full.EnablePersistenceFS(fs, "compact.journal")
		if err != nil {
			t.Fatalf("enable persistence: %v", err)
		}
		mgr, err := node.NewManager(full)
		if err != nil {
			t.Fatal(err)
		}
		return full, mgr, replayed
	}

	full, mgr, _ := boot()
	device := newTestDevice(t, full, clk)
	mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	var lastID [32]byte
	for i := 0; i < 40; i++ {
		clk.Advance(time.Minute)
		res, err := device.PostReading(ctx, []byte("aged"))
		if err != nil {
			t.Fatal(err)
		}
		lastID = res.Info.ID
	}
	tangleDropped, compacted, err := full.Compact(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tangleDropped == 0 {
		t.Fatal("compact dropped nothing")
	}
	liveSize := full.Tangle().Size()
	if err := full.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	full.Close()

	// Crash: reboot the disk (the compacted segment was synced by the
	// atomic rename, so it survives) and replay it into a fresh node.
	fs.Reboot()
	full2, _, replayed := boot()
	defer full2.Close()
	if replayed != compacted {
		t.Errorf("replayed %d of %d compacted records", replayed, compacted)
	}
	if got := full2.Tangle().Size(); got != liveSize {
		t.Errorf("recovered size = %d, want %d", got, liveSize)
	}
	if !full2.Tangle().Contains(lastID) {
		t.Error("newest reading lost across compacted recovery")
	}
	if full2.Tangle().SnapshottedCount() == 0 {
		t.Error("recovery recorded no snapshot boundary")
	}
	// The recovered node keeps serving and journaling.
	device2 := newTestDevice(t, full2, clk)
	mgr2, err := node.NewManager(full2)
	if err != nil {
		t.Fatal(err)
	}
	mgr2.AuthorizeDevice(device2.Key().Public(), device2.Key().BoxPublic())
	if _, err := mgr2.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := device2.PostReading(ctx, []byte("after recovery")); err != nil {
		t.Fatalf("post after compacted recovery: %v", err)
	}
}

// TestCrashInsideCompactRecovers: Compact persists the pruned IDs to the
// cold index at once; the journal rewrite only follows. A crash between
// the two — here the disk dies as the rewrite opens its segment — leaves a
// generation-0 journal that still holds every pruned record, and whose
// first live records have parents the cold index says were folded away.
// The node must boot on it: the pruned records are duplicates of cold
// entries, the live ones sit on the snapshot boundary. (It used to refuse
// with "transaction already attached (snapshotted)" at the first pruned
// record.)
func TestCrashInsideCompactRecovers(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	fs := &crashOnOpenFS{MemFS: chaos.NewMemFS(43), name: "compact.journal.compact"}
	managerKey, err := identity.Generate()
	if err != nil {
		t.Fatal(err)
	}
	boot := func() (*node.FullNode, error) {
		full, err := node.NewFull(node.FullConfig{
			Key:        managerKey,
			Role:       identity.RoleManager,
			ManagerPub: managerKey.Public(),
			Credit:     testParams(),
			Clock:      clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = full.EnablePersistenceFS(fs, "compact.journal")
		return full, err
	}

	full, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := node.NewManager(full)
	if err != nil {
		t.Fatal(err)
	}
	device := newTestDevice(t, full, clk)
	mgr.AuthorizeDevice(device.Key().Public(), device.Key().BoxPublic())
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		t.Fatal(err)
	}
	var lastID [32]byte
	for i := 0; i < 40; i++ {
		clk.Advance(time.Minute)
		res, err := device.PostReading(ctx, []byte("aged"))
		if err != nil {
			t.Fatal(err)
		}
		lastID = res.Info.ID
	}
	fs.armed.Store(true)
	dropped, _, err := full.Compact(10 * time.Minute)
	if dropped == 0 {
		t.Fatal("compact dropped nothing")
	}
	if !errors.Is(err, chaos.ErrCrashed) {
		t.Fatalf("compact across a dying disk: err = %v, want %v", err, chaos.ErrCrashed)
	}
	liveSize, snapshotted := full.Tangle().Size(), full.Tangle().SnapshottedCount()
	_ = full.ClosePersistence() // the disk is down
	full.Close()
	fs.armed.Store(false)
	fs.Reboot()

	full2, err := boot()
	if err != nil {
		t.Fatalf("boot after a crash inside Compact: %v", err)
	}
	defer full2.Close()
	if got := full2.Tangle().Size(); got != liveSize {
		t.Errorf("recovered size = %d, want the %d live transactions", got, liveSize)
	}
	if !full2.Tangle().Contains(lastID) {
		t.Error("newest reading lost across the recovery")
	}
	if got := full2.Tangle().SnapshottedCount(); got != snapshotted {
		t.Errorf("recovered snapshotted count = %d, want %d", got, snapshotted)
	}
}

// crashOnOpenFS crashes its disk, once armed, at the opening of the file
// named name.
type crashOnOpenFS struct {
	*chaos.MemFS
	name  string
	armed atomic.Bool
}

func (fs *crashOnOpenFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	if name == fs.name && fs.armed.Load() {
		fs.CrashAfter(1)
	}
	return fs.MemFS.OpenFile(name, flag, perm)
}
