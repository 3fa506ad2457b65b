package tangle

import (
	"hash/maphash"

	"github.com/b-iot/biot/internal/hashutil"
)

// vertexTable finds a resident vertex by ID in O(1) expected time: one
// open-addressed, linearly probed table of vertex pointers. A slot is one
// word and the ID it is looked up by is compared where it lies, in the
// vertex, so the table costs 8 bytes a slot where a map[Hash]*vertex keeps
// a copy of every 32-byte key beside its value. The table is built (on
// growth) at a load of at most 1/2 and grows past 3/4: 16 bytes a vertex
// at half load, 10.7 at its fullest. Hashing is seeded per tangle, so
// transaction IDs an attacker grinds cannot be aimed at one probe run.
type vertexTable struct {
	seed  maphash.Seed
	slots []*vertex // nil empty
	n     int
}

func newVertexTable() vertexTable {
	return vertexTable{seed: maphash.MakeSeed(), slots: make([]*vertex, 16)}
}

func (x *vertexTable) home(id *hashutil.Hash) int {
	return int(maphash.Bytes(x.seed, id[:]) & uint64(len(x.slots)-1))
}

// next steps a probe.
func (x *vertexTable) next(i int) int { return (i + 1) & (len(x.slots) - 1) }

// len returns the number of resident vertices.
func (x *vertexTable) len() int { return x.n }

// get returns the vertex filed under id, or nil.
func (x *vertexTable) get(id hashutil.Hash) *vertex {
	for i := x.home(&id); x.slots[i] != nil; i = x.next(i) {
		if v := x.slots[i]; v.id == id {
			return v
		}
	}
	return nil
}

// lookup is get in the comma-ok form of a map read.
func (x *vertexTable) lookup(id hashutil.Hash) (*vertex, bool) {
	v := x.get(id)
	return v, v != nil
}

// insert files v, whose ID is not resident.
func (x *vertexTable) insert(v *vertex) {
	if (x.n+1)*4 > len(x.slots)*3 {
		x.grow(x.n + 1)
	}
	x.place(v)
}

func (x *vertexTable) place(v *vertex) {
	i := x.home(&v.id)
	for x.slots[i] != nil {
		i = x.next(i)
	}
	x.slots[i] = v
	x.n++
}

// grow re-files every vertex in a table sized for n vertices at a load of
// at most 1/2.
func (x *vertexTable) grow(n int) {
	size := len(x.slots)
	for size < 2*n {
		size *= 2
	}
	old := x.slots
	x.slots, x.n = make([]*vertex, size), 0
	for _, v := range old {
		if v != nil {
			x.place(v)
		}
	}
}

// remove drops the vertex filed under id, if any, shifting later slots of
// its probe run back so no tombstone is left.
func (x *vertexTable) remove(id hashutil.Hash) {
	i := x.home(&id)
	for {
		v := x.slots[i]
		if v == nil {
			return
		}
		if v.id == id {
			break
		}
		i = x.next(i)
	}
	x.slots[i] = nil
	x.n--
	for j := x.next(i); x.slots[j] != nil; j = x.next(j) {
		h := x.home(&x.slots[j].id)
		// slots[j] may fill the hole unless its home lies cyclically in (i, j].
		if (i < j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
			x.slots[i], x.slots[j] = x.slots[j], nil
			i = j
		}
	}
}

// each calls fn with every resident vertex, in slot order.
func (x *vertexTable) each(fn func(v *vertex)) {
	for _, v := range x.slots {
		if v != nil {
			fn(v)
		}
	}
}

// indexPage is how many vertices one page of an attachment-order index
// holds: 2 KiB of pointers.
const indexPage = 256

// pagedIndex is an attachment-order index — the whole ledger's, one
// namespace's or one kind's — held in fixed-size pages. An attach appends
// in place: a full index takes a fresh page and never copies the pages it
// has, where a growing []*vertex re-copies its whole history at every
// doubling. A snapshot compacts it in place (compact).
type pagedIndex struct {
	pages []*[indexPage]*vertex
	n     int
}

// len returns the number of vertices indexed.
func (x *pagedIndex) len() int { return x.n }

// at returns the i-th vertex, 0 ≤ i < len.
func (x *pagedIndex) at(i int) *vertex { return x.pages[i/indexPage][i%indexPage] }

// append indexes v after every vertex indexed so far.
func (x *pagedIndex) append(v *vertex) {
	if x.n == len(x.pages)*indexPage {
		x.pages = append(x.pages, new([indexPage]*vertex))
	}
	x.pages[x.n/indexPage][x.n%indexPage] = v
	x.n++
}

// each calls fn with up to limit vertices from index from on, in order,
// until fn returns false.
func (x *pagedIndex) each(from, limit int, fn func(v *vertex) bool) {
	if from < 0 {
		from = 0
	}
	end := x.n
	if limit < end-from {
		end = from + limit
	}
	for i := from; i < end; {
		page := x.pages[i/indexPage]
		stop := min(end, (i/indexPage+1)*indexPage)
		for _, v := range page[i%indexPage : stop-(i/indexPage)*indexPage] {
			if !fn(v) {
				return
			}
		}
		i = stop
	}
}

// span returns how many vertices a page of up to limit from index from
// on holds.
func (x *pagedIndex) span(from, limit int) int {
	if from < 0 {
		from = 0
	}
	if from >= x.n || limit <= 0 {
		return 0
	}
	return min(limit, x.n-from)
}

// compact drops the vertices a snapshot pruned, keeping the order of the
// rest, and releases the pages the survivors no longer reach, clearing
// the vacated tail of the last one so nothing pruned stays reachable.
func (x *pagedIndex) compact() {
	kept := 0
	for i := 0; i < x.n; i++ {
		if v := x.at(i); !v.pruned {
			x.pages[kept/indexPage][kept%indexPage] = v
			kept++
		}
	}
	for i := kept; i < x.n && i%indexPage != 0; i++ {
		x.pages[i/indexPage][i%indexPage] = nil
	}
	used := (kept + indexPage - 1) / indexPage
	clear(x.pages[used:])
	x.pages, x.n = x.pages[:used], kept
}
