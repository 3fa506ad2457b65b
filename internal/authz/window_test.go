package authz

import (
	"math/rand"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/identity"
)

// windowModel is an independent from-scratch oracle for the evidence
// window: plain maps and the documented rules (first observation of a
// sequence wins, highest sequence is the current view, cap evicts
// lowest-first raising the floor, prune keeps minKeep newest plus the
// current), sharing no code with the Registry implementation. The
// property test below interleaves deliveries — in order, out of order,
// gapped, duplicated — with cap pressure and epoch prunes, and demands
// the Registry and the model agree on every observable after every op.
type windowModel struct {
	cap           int
	applied       bool
	currentSeq    uint64
	current       map[identity.Address]bool
	versions      map[uint64]map[identity.Address]bool
	recordedAt    map[uint64]time.Time
	prunedThrough uint64
}

func newWindowModel(capacity int) *windowModel {
	return &windowModel{
		cap:        capacity,
		current:    map[identity.Address]bool{},
		versions:   map[uint64]map[identity.Address]bool{},
		recordedAt: map[uint64]time.Time{},
	}
}

func (m *windowModel) deliver(seq uint64, members map[identity.Address]bool, at time.Time) {
	if seq > m.prunedThrough {
		if _, exists := m.versions[seq]; !exists {
			cp := make(map[identity.Address]bool, len(members))
			for a := range members {
				cp[a] = true
			}
			m.versions[seq] = cp
			m.recordedAt[seq] = at
			for len(m.versions) > m.cap {
				lowest := uint64(0)
				for s := range m.versions {
					if s == m.currentSeq {
						continue
					}
					if lowest == 0 || s < lowest {
						lowest = s
					}
				}
				if lowest == 0 {
					break
				}
				delete(m.versions, lowest)
				delete(m.recordedAt, lowest)
				if lowest > m.prunedThrough {
					m.prunedThrough = lowest
				}
			}
		}
	}
	if !m.applied || seq > m.currentSeq {
		m.applied = true
		m.currentSeq = seq
		m.current = members
	}
}

func (m *windowModel) prune(cutoff time.Time, minKeep int) {
	if minKeep < 1 {
		minKeep = 1
	}
	if len(m.versions) <= minKeep {
		return
	}
	seqs := make([]uint64, 0, len(m.versions))
	for s := range m.versions {
		seqs = append(seqs, s)
	}
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			if seqs[j] < seqs[i] {
				seqs[i], seqs[j] = seqs[j], seqs[i]
			}
		}
	}
	keepFrom := len(seqs) - minKeep
	for i, s := range seqs {
		if i >= keepFrom || s == m.currentSeq {
			continue
		}
		if m.recordedAt[s].Before(cutoff) {
			delete(m.versions, s)
			delete(m.recordedAt, s)
			if s > m.prunedThrough {
				m.prunedThrough = s
			}
		}
	}
}

func (m *windowModel) verdict(manager, addr identity.Address, evidence uint64) (Verdict, uint64) {
	if addr == manager {
		return VerdictAuthorized, 0
	}
	if m.current[addr] {
		return VerdictAuthorized, 0
	}
	lo := evidence
	if lo < m.prunedThrough+1 {
		lo = m.prunedThrough + 1
	}
	if lo < 1 {
		lo = 1
	}
	var firstMissing uint64
	for s := lo; s <= m.currentSeq; s++ {
		v, ok := m.versions[s]
		if !ok {
			if firstMissing == 0 {
				firstMissing = s
			}
			continue
		}
		if v[addr] {
			return VerdictAuthorized, 0
		}
	}
	if firstMissing != 0 {
		return VerdictUnresolved, firstMissing
	}
	return VerdictUnauthorized, 0
}

// TestEvidenceWindowPropertyVsModel drives a Registry and the oracle
// through the same randomized interleaving of authorize / revoke /
// reinstate list deliveries (shuffled, duplicated, gapped) and epoch
// prunes, comparing every observable after every operation.
func TestEvidenceWindowPropertyVsModel(t *testing.T) {
	const (
		devicePool = 5
		maxSeq     = 24
		ops        = 400
		windowCap  = 6
		seed       = 0xB107E
	)
	rng := rand.New(rand.NewSource(seed))
	mgr := mustKey(t)
	mgrAddr := mgr.Address()

	devices := make([]*identity.KeyPair, devicePool)
	for i := range devices {
		devices[i] = mustKey(t)
	}
	stranger := mustKey(t).Address()

	// Pre-generate the manager's list revisions 1..maxSeq with random
	// membership (authorize / revoke / reinstate arise naturally from
	// independent random subsets).
	type revision struct {
		list    List
		members map[identity.Address]bool
	}
	revisions := make([]revision, maxSeq+1)
	for seq := 1; seq <= maxSeq; seq++ {
		rev := revision{list: List{Seq: uint64(seq)}, members: map[identity.Address]bool{}}
		for _, d := range devices {
			if rng.Intn(2) == 0 {
				rev.list.Devices = append(rev.list.Devices, identity.EncodePublic(d.Public()))
				rev.members[d.Address()] = true
			}
		}
		revisions[seq] = rev
	}
	stampOf := func(seq uint64) time.Time { return time.Unix(int64(seq)*60, 0) }

	reg, err := NewRegistry(mgrAddr)
	if err != nil {
		t.Fatal(err)
	}
	reg.maxVersions = windowCap
	model := newWindowModel(windowCap)

	check := func(op string) {
		t.Helper()
		if got, want := reg.Seq(), model.currentSeq; got != want {
			t.Fatalf("after %s: Seq() = %d, model %d", op, got, want)
		}
		if got, want := reg.PrunedThrough(), model.prunedThrough; got != want {
			t.Fatalf("after %s: PrunedThrough() = %d, model %d", op, got, want)
		}
		if got, want := reg.VersionsRetained(), len(model.versions); got != want {
			t.Fatalf("after %s: VersionsRetained() = %d, model %d (%v)", op, got, want, reg.VersionSeqs())
		}
		addrs := []identity.Address{stranger, mgrAddr}
		for _, d := range devices {
			addrs = append(addrs, d.Address())
		}
		for _, addr := range addrs {
			if got, want := reg.IsAuthorizedDevice(addr), addr == mgrAddr || model.current[addr]; got != want {
				t.Fatalf("after %s: IsAuthorizedDevice(%s) = %v, model %v", op, addr.Short(), got, want)
			}
			for evidence := uint64(0); evidence <= maxSeq+1; evidence++ {
				gotV, gotMiss := reg.EvidenceVerdict(addr, evidence)
				wantV, wantMiss := model.verdict(mgrAddr, addr, evidence)
				if gotV != wantV || gotMiss != wantMiss {
					t.Fatalf("after %s: EvidenceVerdict(%s, %d) = (%v, %d), model (%v, %d); window %v floor %d",
						op, addr.Short(), evidence, gotV, gotMiss, wantV, wantMiss,
						reg.VersionSeqs(), reg.PrunedThrough())
				}
			}
		}
	}

	for op := 0; op < ops; op++ {
		if rng.Intn(8) == 0 {
			// Epoch prune at a random cutoff on the stamp grid.
			cutoff := stampOf(uint64(rng.Intn(maxSeq + 2)))
			minKeep := 1 + rng.Intn(3)
			reg.PruneVersions(cutoff, minKeep)
			model.prune(cutoff, minKeep)
			check("prune")
			continue
		}
		seq := uint64(1 + rng.Intn(maxSeq)) // duplicates and gaps by construction
		rev := revisions[seq]
		tx := authTx(t, mgr, rev.list)
		tx.Timestamp = stampOf(seq)
		if _, err := reg.Observe(tx.View(), stampOf(seq)); err != nil {
			t.Fatalf("observe seq %d: %v", seq, err)
		}
		model.deliver(seq, rev.members, stampOf(seq))
		check("observe")
	}
}

// TestObserveStaleListNeverRollsBack pins the no-rollback regression: a
// re-offered OLDER list (a gossip echo or a lagging peer's sync page)
// must record as history only — the live view, its sequence and its
// membership stay exactly where the newest list put them.
func TestObserveStaleListNeverRollsBack(t *testing.T) {
	mgr := mustKey(t)
	dev := mustKey(t)
	reg, err := NewRegistry(mgr.Address())
	if err != nil {
		t.Fatal(err)
	}

	withDev := List{Seq: 1, Devices: []string{identity.EncodePublic(dev.Public())}}
	without := List{Seq: 2}
	if _, err := reg.Observe(authTx(t, mgr, withDev).View(), time.Unix(60, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Observe(authTx(t, mgr, without).View(), time.Unix(120, 0)); err != nil {
		t.Fatal(err)
	}
	if reg.IsAuthorizedDevice(dev.Address()) {
		t.Fatal("device still authorized after the revoking list")
	}

	// Re-offer the older list: success (it IS valid history), applied
	// false, and no observable rollback.
	applied, err := reg.Observe(authTx(t, mgr, withDev).View(), time.Unix(180, 0))
	if err != nil {
		t.Fatalf("re-offered older list errored: %v", err)
	}
	if applied {
		t.Fatal("re-offered older list reported applied")
	}
	if got := reg.Seq(); got != 2 {
		t.Fatalf("Seq() = %d after stale re-offer, want 2", got)
	}
	if reg.IsAuthorizedDevice(dev.Address()) {
		t.Fatal("stale re-offer rolled the membership back")
	}
	// The history itself is intact: the device IS a member of version 1.
	if member, ok := reg.MemberAt(dev.Address(), 1); !ok || !member {
		t.Fatalf("MemberAt(dev, 1) = (%v, %v), want (true, true)", member, ok)
	}
}

// TestGappedListParksInWindow pins out-of-order hardening: when list
// N+2 arrives before N+1, it takes effect (highest wins) and N+1's slot
// stays a GAP — reported Unresolved with the right missing sequence —
// until the real N+1 arrives; a later duplicate of an already-recorded
// sequence never overwrites the recorded version.
func TestGappedListParksInWindow(t *testing.T) {
	mgr := mustKey(t)
	devA := mustKey(t)
	devB := mustKey(t)
	reg, err := NewRegistry(mgr.Address())
	if err != nil {
		t.Fatal(err)
	}

	l1 := List{Seq: 1, Devices: []string{identity.EncodePublic(devA.Public())}}
	l2 := List{Seq: 2, Devices: []string{identity.EncodePublic(devB.Public())}}
	l3 := List{Seq: 3}
	if _, err := reg.Observe(authTx(t, mgr, l1).View(), time.Unix(60, 0)); err != nil {
		t.Fatal(err)
	}
	// N+2 before N+1.
	if _, err := reg.Observe(authTx(t, mgr, l3).View(), time.Unix(180, 0)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Seq(); got != 3 {
		t.Fatalf("Seq() = %d, want 3", got)
	}
	if _, ok := reg.MemberAt(devB.Address(), 2); ok {
		t.Fatal("version 2 retained before it was ever delivered")
	}
	// devB's evidence-2 verdict must be Unresolved (gap at 2), not a
	// definitive reject.
	if v, miss := reg.EvidenceVerdict(devB.Address(), 2); v != VerdictUnresolved || miss != 2 {
		t.Fatalf("EvidenceVerdict(devB, 2) = (%v, %d), want (unresolved, 2)", v, miss)
	}
	// The gap fills when N+1 arrives — without disturbing the view.
	applied, err := reg.Observe(authTx(t, mgr, l2).View(), time.Unix(120, 0))
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("gap-filling older list applied to the current view")
	}
	if v, _ := reg.EvidenceVerdict(devB.Address(), 2); v != VerdictAuthorized {
		t.Fatalf("EvidenceVerdict(devB, 2) = %v after gap fill, want authorized", v)
	}
	// A duplicate of sequence 2 with different content (hostile replay)
	// cannot overwrite the recorded version.
	forged := List{Seq: 2}
	if _, err := reg.Observe(authTx(t, mgr, forged).View(), time.Unix(240, 0)); err != nil {
		t.Fatal(err)
	}
	if member, ok := reg.MemberAt(devB.Address(), 2); !ok || !member {
		t.Fatalf("MemberAt(devB, 2) = (%v, %v) after replay, want (true, true)", member, ok)
	}
}

// TestWindowCapRaisesFloor pins the memory bound: past maxVersions the
// window evicts lowest-first and raises the pruned floor, turning
// evidence below the floor into a definitive verdict instead of an
// unbounded Unresolved backlog.
func TestWindowCapRaisesFloor(t *testing.T) {
	mgr := mustKey(t)
	dev := mustKey(t)
	reg, err := NewRegistry(mgr.Address())
	if err != nil {
		t.Fatal(err)
	}
	reg.maxVersions = 4

	// The device is a member of versions 1..6 only.
	for seq := uint64(1); seq <= 10; seq++ {
		l := List{Seq: seq}
		if seq <= 6 {
			l.Devices = []string{identity.EncodePublic(dev.Public())}
		}
		if _, err := reg.Observe(authTx(t, mgr, l).View(), time.Unix(int64(seq)*60, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.VersionsRetained(); got > 4 {
		t.Fatalf("VersionsRetained() = %d, want ≤ 4", got)
	}
	if got := reg.PrunedThrough(); got != 6 {
		t.Fatalf("PrunedThrough() = %d, want 6 (versions 1..6 evicted)", got)
	}
	// Evidence below the floor with no retained membership: definitive
	// Unauthorized, not Unresolved — the versions that could have
	// authorized it are gone by policy, like the snapshotted tangle
	// region the evidence points into.
	if v, miss := reg.EvidenceVerdict(dev.Address(), 2); v != VerdictUnauthorized || miss != 0 {
		t.Fatalf("EvidenceVerdict(dev, 2) = (%v, %d), want (unauthorized, 0)", v, miss)
	}
}

// TestPruneVersionsKeepsFloorAndCurrent pins PruneVersions' guardrails:
// minKeep newest survive any cutoff, the current sequence is never
// dropped, and the pruned floor rises past everything dropped.
func TestPruneVersionsKeepsFloorAndCurrent(t *testing.T) {
	mgr := mustKey(t)
	reg, err := NewRegistry(mgr.Address())
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := reg.Observe(authTx(t, mgr, List{Seq: seq}).View(), time.Unix(int64(seq)*60, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Cutoff far in the future: everything is "old", but minKeep=2 and
	// the current sequence survive.
	if dropped := reg.PruneVersions(time.Unix(1e6, 0), 2); dropped != 3 {
		t.Fatalf("PruneVersions dropped %d, want 3", dropped)
	}
	seqs := reg.VersionSeqs()
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("VersionSeqs() = %v, want [4 5]", seqs)
	}
	if got := reg.PrunedThrough(); got != 3 {
		t.Fatalf("PrunedThrough() = %d, want 3", got)
	}
}
