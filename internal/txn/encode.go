package txn

import (
	"encoding/binary"
	"errors"
	"slices"

	"github.com/b-iot/biot/internal/hashutil"
)

// Wire format (all integers big-endian):
//
//	magic     uint16  = 0xB107
//	version   uint8   = 1
//	kind      uint8
//	trunk     [32]byte
//	branch    [32]byte
//	timestamp int64   (unix nanoseconds)
//	issuer    uint16-length-prefixed bytes
//	payload   uint32-length-prefixed bytes
//	--- fields below present only in the full encoding ---
//	nonce     uint64
//	signature uint16-length-prefixed bytes
//
// SigningBytes is the prefix of Encode ending right before nonce, so a
// signature over SigningBytes commits to every field the issuer chose.

const (
	wireMagic   uint16 = 0xB107
	wireVersion uint8  = 1

	// wireIssuerOffset is where the issuer bytes start: after magic,
	// version, kind, both parents, the timestamp and the issuer length.
	wireIssuerOffset = 2 + 1 + 1 + 2*hashutil.Size + 8 + 2
)

// Decoding errors.
var (
	ErrBadMagic       = errors.New("transaction encoding has wrong magic")
	ErrBadVersion     = errors.New("transaction encoding has unsupported version")
	ErrTruncated      = errors.New("transaction encoding truncated")
	ErrTrailingBytes  = errors.New("transaction encoding has trailing bytes")
	ErrFieldTooLarge  = errors.New("transaction field exceeds encoding limit")
	errInternalEncode = errors.New("internal encoding inconsistency")
)

// wireCache is one immutable snapshot of a transaction's canonical
// encoding, shared through Transaction.cache (an atomic pointer) so
// concurrent readers never re-serialize and never race. The nonce bytes
// at enc[signingLen:signingLen+8] are the only field the protocol
// legitimately mutates after the first encode (PoW runs after signing,
// Fig 6); ensureCache detects a changed Nonce and rebuilds.
type wireCache struct {
	enc        []byte        // full canonical encoding
	signingLen int           // length of the SigningBytes prefix within enc
	id         hashutil.Hash // SHA-256 of enc, once computed
	idValid    bool
}

// ensureCache returns a cache snapshot whose encoding matches the
// transaction's current fields, building one on first use. Fields
// other than Nonce must not be mutated after the first
// Encode/ID/SigningBytes/VerifyBasic call — Sign and Invalidate reset
// the cache; direct mutation of any other field afterwards is a
// contract violation (Clone first, or call Invalidate).
func (t *Transaction) ensureCache() *wireCache { return t.snapshot(false) }

// snapshot is ensureCache for a caller that may also want the digest:
// with withID, the snapshot returned carries it. A snapshot is published
// once and never written — a concurrent reader may hold it — so one that
// lacks the digest is replaced by one that has it, and a transaction with
// no current snapshot gets one built with the digest in it, not two.
func (t *Transaction) snapshot(withID bool) *wireCache {
	c := t.cache.Load()
	if c != nil && binary.BigEndian.Uint64(c.enc[c.signingLen:]) == t.Nonce {
		if c.idValid || !withID {
			return c
		}
		c = &wireCache{enc: c.enc, signingLen: c.signingLen}
	} else {
		c = &wireCache{enc: t.appendEncode(nil, true)}
		c.signingLen = len(c.enc) - 8 - 2 - len(t.Signature)
	}
	if withID {
		c.id, c.idValid = hashutil.Sum(c.enc), true
	}
	t.cache.Store(c)
	return c
}

// Encode returns the full canonical encoding, including nonce and
// signature. ID() is the SHA-256 of this byte string.
//
// The returned slice is the transaction's cached encoding: treat it as
// read-only and use AppendEncode for a private copy.
func (t *Transaction) Encode() []byte {
	return t.ensureCache().enc
}

// AppendEncode appends the full canonical encoding to dst and returns
// the extended slice, reusing the cached encoding when present. It is
// the allocation-free path for callers assembling wire messages or
// journal records into their own buffers.
func (t *Transaction) AppendEncode(dst []byte) []byte {
	return append(dst, t.ensureCache().enc...)
}

// Invalidate drops the cached canonical encoding. Callers that mutate
// transaction fields directly (tests, attack harnesses) after an
// encode-path call must invalidate before re-encoding or re-verifying;
// the protocol itself never needs it (Sign invalidates, and Nonce
// changes are tracked).
func (t *Transaction) Invalidate() {
	t.cache.Store(nil)
}

// appendEncode serializes from the struct fields, bypassing the cache,
// growing buf once if what it has spare does not fit the encoding.
func (t *Transaction) appendEncode(buf []byte, full bool) []byte {
	size := 2 + 1 + 1 + hashutil.Size*2 + 8 + 2 + len(t.Issuer) + 4 + len(t.Payload)
	if full {
		size += 8 + 2 + len(t.Signature)
	}
	buf = slices.Grow(buf, size)
	buf = binary.BigEndian.AppendUint16(buf, wireMagic)
	buf = append(buf, wireVersion, byte(t.Kind))
	buf = append(buf, t.Trunk[:]...)
	buf = append(buf, t.Branch[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.Timestamp.UnixNano()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(t.Issuer)))
	buf = append(buf, t.Issuer...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Payload)))
	buf = append(buf, t.Payload...)
	if full {
		buf = binary.BigEndian.AppendUint64(buf, t.Nonce)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(t.Signature)))
		buf = append(buf, t.Signature...)
	}
	return buf
}

// Decode parses a full canonical encoding produced by Encode.
//
// The wire format is positional, so the input IS the canonical
// encoding: Decode copies it once and checks the copy (ViewCopy), seeds
// the transaction's encoding cache with it and its digest, and sub-slices
// Issuer, Payload and Signature from it — one buffer allocation for the
// whole transaction, and ID/Encode/SigningBytes/VerifyBasic never
// re-serialize or re-hash. The decoded transaction's byte-slice fields
// alias the cache; Clone before mutating them. A reader that only checks,
// identifies and keeps the bytes needs no Transaction: ViewCopy is all of
// Decode but the struct.
func Decode(data []byte) (*Transaction, error) {
	v, err := ViewCopy(data)
	if err != nil {
		return nil, err
	}
	// A decoded transaction is identified next (deduplication, the attach),
	// so the digest is taken here, over the bytes just copied, and the cache
	// is published once: ID would otherwise replace a snapshot without a
	// digest by one with.
	return v.decoded(v.Issuer(), v.Payload(), v.Signature(), hashutil.Sum(v.enc)), nil
}
