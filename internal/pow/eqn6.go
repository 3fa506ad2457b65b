package pow

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"

	"github.com/b-iot/biot/internal/hashutil"
)

// eqn6 computes Eqn 6's digest, hash(hash(trunk) ‖ hash(branch) ‖ nonce),
// for one nonce after another. The 72-byte message spans two SHA-256
// blocks, and the first — the two 32-byte parent hashes — is the same on
// every attempt: it is absorbed once, and each attempt restores the state
// after it and hashes only the block holding the nonce, one compression
// where hashing the whole message runs two. The digest is the same
// (hashutil.SumPow, which Verify checks, computes it in one go). Hashers
// are pooled with their buffers, so a search allocates nothing.
type eqn6 struct {
	h       hash.Hash
	restore encoding.BinaryUnmarshaler
	state   []byte // the state after the first block
	block   [2 * hashutil.Size]byte
	nonce   [8]byte
	sum     []byte
}

var eqn6Pool = sync.Pool{New: func() any {
	h := sha256.New()
	return &eqn6{h: h, restore: h.(encoding.BinaryUnmarshaler), sum: make([]byte, 0, sha256.Size)}
}}

// stateAppender is the digest's allocation-free form of MarshalBinary
// (crypto/sha256 has it from go1.24).
type stateAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// newEqn6 takes a hasher from the pool and absorbs the parents' block;
// put hands it back.
func newEqn6(trunk, branch hashutil.Hash) *eqn6 {
	e := eqn6Pool.Get().(*eqn6)
	inner1, inner2 := hashutil.Sum(trunk[:]), hashutil.Sum(branch[:])
	copy(e.block[:hashutil.Size], inner1[:])
	copy(e.block[hashutil.Size:], inner2[:])
	e.h.Reset()
	e.h.Write(e.block[:])
	var err error
	if a, ok := e.h.(stateAppender); ok {
		e.state, err = a.AppendBinary(e.state[:0])
	} else {
		e.state, err = e.h.(encoding.BinaryMarshaler).MarshalBinary()
	}
	if err != nil {
		panic("pow: sha256 state does not marshal: " + err.Error())
	}
	return e
}

func (e *eqn6) put() { eqn6Pool.Put(e) }

// digest returns the Eqn-6 output for nonce.
func (e *eqn6) digest(nonce uint64) (d hashutil.Hash) {
	if err := e.restore.UnmarshalBinary(e.state); err != nil {
		panic("pow: sha256 state does not unmarshal: " + err.Error())
	}
	binary.BigEndian.PutUint64(e.nonce[:], nonce)
	e.h.Write(e.nonce[:])
	copy(d[:], e.h.Sum(e.sum[:0]))
	return d
}
