package edwards25519

import "sync"

// multiScalarScratch is the working memory of one
// VarTimeMultiScalarBaseMult call over more points than its stack holds:
// a width-5 NAF table (1 280 B) and a 256-digit NAF per dynamic point,
// 1.5 KB a point, which a call used to make afresh. It may be handed from
// call to call without clearing because a call reads only entries [0, n)
// and overwrites every one of them — all eight table rows (FromP3) and
// all 256 digits (an array assignment) — before the ladder reads any.
type multiScalarScratch struct {
	tables []nafLookupTable5
	nafs   [][256]int8
}

// multiScalarPool holds one scratch per concurrently running call. A
// scratch grows to the largest batch it has served; the node verifies in
// chunks of 64 signatures, 128 points (≈ 200 KB).
var multiScalarPool = sync.Pool{New: func() any { return new(multiScalarScratch) }}

// stackPoints is how many dynamic points a call works on in its own
// frame: the two halves of one signature check, −A and −[2^128]A.
const stackPoints = 2

// VarTimeMultiScalarBaseMult sets v = b*B + Σ scalars[i]*points[i],
// where B is the canonical generator, and returns v.
//
// It is the signature rule's workhorse: a single Straus pass shares one
// doubling ladder across every term, so the marginal cost of one more
// point is only its width-5 NAF table (8 additions) plus a sparse
// addition every ~6 digits of its scalar — versus the ~253 doublings a
// standalone scalar multiplication would pay. The ladder is as long as
// the longest scalar: b is split into 128-bit halves, one on B and one on
// B′ = [2^128]B, each with a precomputed width-8 table, so it never sets
// the length; a caller whose dynamic scalars are below 2^128 (split the
// same way, over a point and its [2^128] multiple) runs about 129
// doublings instead of 253.
//
// Execution time depends on the inputs. scalars and points must have
// equal length.
func (v *Point) VarTimeMultiScalarBaseMult(b *Scalar, scalars []*Scalar, points []*Point) *Point {
	if len(scalars) != len(points) {
		panic("edwards25519: mismatched multiscalar input lengths")
	}
	checkInitialized(points...)

	// Dynamic points get width-5 NAF tables built at runtime. Up to
	// stackPoints of them — a single signature check — work on the stack,
	// so that such a call allocates nothing even when the pool comes back
	// empty (after a collection, or under the race detector, which drops
	// pooled items).
	var (
		stackTables [stackPoints]nafLookupTable5
		stackNafs   [stackPoints][256]int8
		buf         [32]byte
	)
	tables, nafs := stackTables[:], stackNafs[:]
	if len(points) > stackPoints {
		scratch := multiScalarPool.Get().(*multiScalarScratch)
		defer multiScalarPool.Put(scratch)
		if cap(scratch.tables) < len(points) {
			scratch.tables = make([]nafLookupTable5, len(points))
			scratch.nafs = make([][256]int8, len(points))
		}
		tables, nafs = scratch.tables, scratch.nafs
	}
	tables, nafs = tables[:len(points)], nafs[:len(points)]
	for i, p := range points {
		tables[i].FromP3(p)
		scalars[i].bytes(&buf)
		nafs[i] = nonAdjacentForm(&buf, 5)
	}

	// The basepoint's scalar as b_lo + 2^128·b_hi, on B and B′.
	var bNafs [2][256]int8
	b.bytes(&buf)
	var half [32]byte
	copy(half[:16], buf[:16])
	bNafs[0] = nonAdjacentForm(&half, 8)
	copy(half[:16], buf[16:])
	bNafs[1] = nonAdjacentForm(&half, 8)
	baseTables := basepointNafTables()

	// Find the first nonzero coefficient across every NAF.
	i := 255
	for ; i >= 0; i-- {
		nonzero := bNafs[0][i] != 0 || bNafs[1][i] != 0
		for j := 0; !nonzero && j < len(nafs); j++ {
			nonzero = nafs[j][i] != 0
		}
		if nonzero {
			break
		}
	}

	multA := &projCached{}
	multB := &affineCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()

	for ; i >= 0; i-- {
		tmp1.Double(tmp2)

		for j := range nafs {
			if nafs[j][i] > 0 {
				v.fromP1xP1(tmp1)
				tables[j].SelectInto(multA, nafs[j][i])
				tmp1.Add(v, multA)
			} else if nafs[j][i] < 0 {
				v.fromP1xP1(tmp1)
				tables[j].SelectInto(multA, -nafs[j][i])
				tmp1.Sub(v, multA)
			}
		}

		for j := range bNafs {
			if bNafs[j][i] > 0 {
				v.fromP1xP1(tmp1)
				baseTables[j].SelectInto(multB, bNafs[j][i])
				tmp1.AddAffine(v, multB)
			} else if bNafs[j][i] < 0 {
				v.fromP1xP1(tmp1)
				baseTables[j].SelectInto(multB, -bNafs[j][i])
				tmp1.SubAffine(v, multB)
			}
		}

		tmp2.FromP1xP1(tmp1)
	}

	v.fromP2(tmp2)
	return v
}

// MultByPow2 sets v = [2^k]p, and returns v: k doublings.
func (v *Point) MultByPow2(p *Point, k int) *Point {
	checkInitialized(p)
	var result projP1xP1
	pp := new(projP2).FromP3(p)
	for range k {
		result.Double(pp)
		pp.FromP1xP1(&result)
	}
	return v.fromP2(pp)
}

// MultByCofactor sets v = 8 * p, and returns v: three doublings.
func (v *Point) MultByCofactor(p *Point) *Point {
	return v.MultByPow2(p, 3)
}
