package core

import (
	"hash/maphash"

	"github.com/b-iot/biot/internal/hashutil"
)

// recIndex finds a credit record by (account, transaction ID) in O(1)
// expected time: one open-addressed, linearly probed table over every
// account's records. A slot is 8 bytes — the account's slot number plus
// one, and the record's position in that account's txs — and names the
// record instead of copying its ID, which is compared where it lies. The
// table is built (on growth, and by Prune) at a load of at most 1/2 and
// grows past 3/4: 16 bytes a record at half load, 10.7 at its fullest.
// Hashing is seeded per ledger, so transaction IDs an attacker grinds
// cannot be aimed at one probe run.
//
// Positions move when records shift within an account (an out-of-order
// insert, a removal); the caller moves their slots with move, which finds
// a slot by its exact value rather than by key, so slots may be updated
// while the records they name are mid-shift.
type recIndex struct {
	seed  maphash.Seed
	slots []uint64 // 0 empty, else (account slot+1)<<32 | position
	n     int
}

func indexSlot(acct *nodeRecord, pos int) uint64 { return uint64(acct.slot+1)<<32 | uint64(pos) }

func (x *recIndex) home(id *hashutil.Hash) int {
	return int(maphash.Bytes(x.seed, id[:]) & uint64(len(x.slots)-1))
}

// next steps a probe.
func (x *recIndex) next(i int) int { return (i + 1) & (len(x.slots) - 1) }

// find returns the position of id among acct's records.
func (x *recIndex) find(acct *nodeRecord, id hashutil.Hash) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	want := indexSlot(acct, 0)
	for i := x.home(&id); x.slots[i] != 0; i = x.next(i) {
		if e := x.slots[i]; e&^0xFFFF_FFFF == want && acct.txs[uint32(e)].id == id {
			return int(uint32(e)), true
		}
	}
	return 0, false
}

// add indexes acct.txs[pos], which is not indexed yet; every other
// record must be where its slot says.
func (x *recIndex) add(accts []*nodeRecord, acct *nodeRecord, pos int) {
	if (x.n+1)*4 > len(x.slots)*3 {
		x.rebuild(accts, x.n+1) // the new record is counted among the records
		return
	}
	x.place(acct, pos)
}

func (x *recIndex) place(acct *nodeRecord, pos int) {
	i := x.home(&acct.txs[pos].id)
	for x.slots[i] != 0 {
		i = x.next(i)
	}
	x.slots[i] = indexSlot(acct, pos)
	x.n++
}

// move re-points the slot naming acct's record at position from to to,
// where the record now is. Callers moving several keep every slot value
// unique at each step (a right shift moves the last record first).
func (x *recIndex) move(acct *nodeRecord, from, to int) {
	old := indexSlot(acct, from)
	for i, probes := x.home(&acct.txs[to].id), 0; probes < len(x.slots); i, probes = x.next(i), probes+1 {
		if x.slots[i] == old {
			x.slots[i] = indexSlot(acct, to)
			return
		}
	}
	panic("core: credit record missing from its index")
}

// remove drops the slot of acct.txs[pos] while every record is still
// where its slot says, shifting later slots of the probe run back so no
// tombstone is left.
func (x *recIndex) remove(accts []*nodeRecord, acct *nodeRecord, pos int) {
	gone := indexSlot(acct, pos)
	i := x.home(&acct.txs[pos].id)
	for x.slots[i] != gone {
		i = x.next(i)
	}
	x.slots[i] = 0
	x.n--
	for j := x.next(i); x.slots[j] != 0; j = x.next(j) {
		e := x.slots[j]
		h := x.home(&accts[e>>32-1].txs[uint32(e)].id)
		// e may fill the hole unless its home lies cyclically in (i, j].
		if (i < j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
			x.slots[i], x.slots[j] = e, 0
			i = j
		}
	}
}

// rebuild indexes every account's records afresh in a table sized for
// n records at a load of at most 1/2.
func (x *recIndex) rebuild(accts []*nodeRecord, n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	x.slots, x.n = make([]uint64, size), 0
	for _, acct := range accts {
		for pos := range acct.txs {
			x.place(acct, pos)
		}
	}
}
