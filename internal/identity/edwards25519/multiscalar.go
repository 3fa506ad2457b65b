package edwards25519

import "sync"

// multiScalarScratch is the working memory of one
// VarTimeMultiScalarBaseMult call: a width-5 NAF table (1 280 B) and a
// 256-digit NAF per dynamic point, 1.5 KB a point, which a call used to
// make afresh. It may be handed from call to call without clearing
// because a call reads only entries [0, n) and overwrites every one of
// them — all eight table rows (FromP3) and all 256 digits (an array
// assignment) — before the ladder reads any.
type multiScalarScratch struct {
	tables []nafLookupTable5
	nafs   [][256]int8
}

// multiScalarPool holds one scratch per concurrently running call. A
// scratch grows to the largest batch it has served; the node verifies in
// chunks of 64 signatures, 128 points (≈ 200 KB).
var multiScalarPool = sync.Pool{New: func() any { return new(multiScalarScratch) }}

// VarTimeMultiScalarBaseMult sets v = b*B + Σ scalars[i]*points[i],
// where B is the canonical generator, and returns v.
//
// It is the batch-verification workhorse: a single Straus pass shares
// one 256-iteration doubling ladder across every term, so the marginal
// cost of one more point is only its width-5 NAF table (8 additions)
// plus ~51 sparse additions — versus the ~256 doublings a standalone
// scalar multiplication would pay.
//
// Execution time depends on the inputs. scalars and points must have
// equal length.
func (v *Point) VarTimeMultiScalarBaseMult(b *Scalar, scalars []*Scalar, points []*Point) *Point {
	if len(scalars) != len(points) {
		panic("edwards25519: mismatched multiscalar input lengths")
	}
	checkInitialized(points...)

	// Dynamic points get width-5 NAF tables built at runtime; the fixed
	// basepoint reuses the precomputed width-8 table (sparser digits). One
	// point — a single signature check — works on the stack, so that it
	// allocates nothing even when the pool comes back empty (after a
	// collection, or under the race detector, which drops pooled items).
	var (
		oneTable [1]nafLookupTable5
		oneNaf   [1][256]int8
	)
	tables, nafs := oneTable[:], oneNaf[:]
	if len(points) != 1 {
		scratch := multiScalarPool.Get().(*multiScalarScratch)
		defer multiScalarPool.Put(scratch)
		if cap(scratch.tables) < len(points) {
			scratch.tables = make([]nafLookupTable5, len(points))
			scratch.nafs = make([][256]int8, len(points))
		}
		tables, nafs = scratch.tables[:len(points)], scratch.nafs[:len(points)]
	}
	for i, p := range points {
		tables[i].FromP3(p)
		nafs[i] = scalars[i].nonAdjacentForm(5)
	}
	basepointNafTable := basepointNafTable()
	bNaf := b.nonAdjacentForm(8)

	// Find the first nonzero coefficient across every NAF.
	i := 255
	for ; i >= 0; i-- {
		nonzero := bNaf[i] != 0
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

		if bNaf[i] > 0 {
			v.fromP1xP1(tmp1)
			basepointNafTable.SelectInto(multB, bNaf[i])
			tmp1.AddAffine(v, multB)
		} else if bNaf[i] < 0 {
			v.fromP1xP1(tmp1)
			basepointNafTable.SelectInto(multB, -bNaf[i])
			tmp1.SubAffine(v, multB)
		}

		tmp2.FromP1xP1(tmp1)
	}

	v.fromP2(tmp2)
	return v
}

// MultByCofactor sets v = 8 * p, and returns v: three doublings.
func (v *Point) MultByCofactor(p *Point) *Point {
	checkInitialized(p)
	var result projP1xP1
	pp := new(projP2).FromP3(p)
	result.Double(pp)
	pp.FromP1xP1(&result)
	result.Double(pp)
	pp.FromP1xP1(&result)
	result.Double(pp)
	return v.fromP1xP1(&result)
}
