package identity

import (
	"crypto/ed25519"
	"fmt"
	"hash/maphash"
	"sync/atomic"

	"github.com/b-iot/biot/internal/identity/edwards25519"
)

// keyTableSlots is how many expanded keys a process keeps. A gateway
// checks the few hundred devices of its region and a device the issuers
// of the tips it approves; 4 096 slots cover either many times over, at
// 8 B a slot empty and 360 B full (TestBytesPerExpandedKey).
const keyTableSlots = 4096

// expandedKey is a public key in the form the signature check works on:
// −A and −A′ = −[2^128]A, so that the check's scalar k splits into two
// 128-bit halves over the two and its ladder is half as long. It is
// immutable once published.
type expandedKey struct {
	pub        [ed25519.PublicKeySize]byte
	negA, negH edwards25519.Point
}

// keySlots is a two-way set-associative table of expanded keys, filed by
// a hash of the key bytes under a per-process seed, so that nobody can
// pick keys that crowd one set on every node. It is shared by every
// verifier in the process. A key enters it only once a signature under it
// has verified, so a stream of failing signatures under fresh keys cannot
// evict the keys of devices that sign correctly. A newcomer becomes the
// newer of its set's two slots, the newer the older, and the older is
// dropped; a key that is asked for again is expanded again. A lookup
// compares all 32 bytes, so a racing pair of publishers can at worst drop
// or duplicate an entry, never give a key another key's points.
var (
	keySeed  = maphash.MakeSeed()
	keySlots [keyTableSlots]atomic.Pointer[expandedKey]
)

// keySet returns the two slots pub maps to, the newer first.
func keySet(pub []byte) []atomic.Pointer[expandedKey] {
	i := maphash.Bytes(keySeed, pub) % (keyTableSlots / 2) * 2
	return keySlots[i : i+2]
}

// expandKey returns pub's expanded key and whether it came from the
// table. A key not there is expanded afresh and left for storeKey. It
// refuses a key the rule refuses: with ErrBadPublicKey for one that is no
// curve point or is of small order. pub must be ed25519.PublicKeySize
// bytes long.
func expandKey(pub []byte) (e *expandedKey, stored bool, err error) {
	set := keySet(pub)
	for i := range set {
		if e := set[i].Load(); e != nil && string(e.pub[:]) == string(pub) {
			return e, true, nil
		}
	}
	var a edwards25519.Point
	if _, err := a.SetBytes(pub); err != nil {
		return nil, false, fmt.Errorf("%w: not a curve point", ErrBadPublicKey)
	}
	if new(edwards25519.Point).MultByCofactor(&a).Equal(edwards25519.NewIdentityPoint()) == 1 {
		return nil, false, fmt.Errorf("%w: small order", ErrBadPublicKey)
	}
	e = new(expandedKey)
	copy(e.pub[:], pub)
	e.negA.Negate(&a)
	e.negH.MultByPow2(&e.negA, 128)
	return e, false, nil
}

// storeKey files e as the newer of its set's slots, unless the newer
// already holds its key (a batch stores one fresh key once per signature).
func storeKey(e *expandedKey) {
	set := keySet(e.pub[:])
	if newer := set[0].Load(); newer != nil && newer.pub == e.pub {
		return
	}
	set[1].Store(set[0].Load())
	set[0].Store(e)
}
