package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
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
func (t *Transaction) ensureCache() *wireCache {
	if c := t.cache.Load(); c != nil &&
		binary.BigEndian.Uint64(c.enc[c.signingLen:]) == t.Nonce {
		return c
	}
	c := &wireCache{enc: t.appendEncode(nil, true)}
	c.signingLen = len(c.enc) - 8 - 2 - len(t.Signature)
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

// appendEncode serializes from the struct fields, bypassing the cache.
func (t *Transaction) appendEncode(buf []byte, full bool) []byte {
	size := 2 + 1 + 1 + hashutil.Size*2 + 8 + 2 + len(t.Issuer) + 4 + len(t.Payload)
	if full {
		size += 8 + 2 + len(t.Signature)
	}
	if buf == nil {
		buf = make([]byte, 0, size)
	}
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

type decoder struct {
	data []byte
	off  int
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) take(n int) ([]byte, error) {
	if d.remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, n, d.off, d.remaining())
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out, nil
}

func (d *decoder) uint16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (d *decoder) uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (d *decoder) uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Decode parses a full canonical encoding produced by Encode.
//
// The wire format is positional, so the input IS the canonical
// encoding: Decode copies it once, seeds the transaction's encoding
// cache with that copy, and sub-slices Issuer, Payload and Signature
// from it — one buffer allocation for the whole transaction, and
// ID/Encode/SigningBytes/VerifyBasic never re-serialize. The decoded
// transaction's byte-slice fields alias the cache; Clone before
// mutating them.
func Decode(data []byte) (*Transaction, error) {
	owned := append([]byte(nil), data...)
	d := &decoder{data: owned}
	magic, err := d.uint16()
	if err != nil {
		return nil, err
	}
	if magic != wireMagic {
		return nil, fmt.Errorf("%w: 0x%04x", ErrBadMagic, magic)
	}
	header, err := d.take(2)
	if err != nil {
		return nil, err
	}
	if header[0] != wireVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, header[0])
	}
	t := &Transaction{Kind: Kind(header[1])}
	trunk, err := d.take(hashutil.Size)
	if err != nil {
		return nil, err
	}
	copy(t.Trunk[:], trunk)
	branch, err := d.take(hashutil.Size)
	if err != nil {
		return nil, err
	}
	copy(t.Branch[:], branch)
	tsNanos, err := d.uint64()
	if err != nil {
		return nil, err
	}
	t.Timestamp = time.Unix(0, int64(tsNanos)).UTC()
	issuerLen, err := d.uint16()
	if err != nil {
		return nil, err
	}
	issuer, err := d.take(int(issuerLen))
	if err != nil {
		return nil, err
	}
	t.Issuer = identity.PublicKey(issuer)
	payloadLen, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if payloadLen > MaxPayloadSize {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrFieldTooLarge, payloadLen)
	}
	payload, err := d.take(int(payloadLen))
	if err != nil {
		return nil, err
	}
	t.Payload = payload
	signingLen := d.off
	if t.Nonce, err = d.uint64(); err != nil {
		return nil, err
	}
	sigLen, err := d.uint16()
	if err != nil {
		return nil, err
	}
	sig, err := d.take(int(sigLen))
	if err != nil {
		return nil, err
	}
	t.Signature = sig
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailingBytes, d.remaining())
	}
	// The input was parsed positionally start to finish, so owned is
	// bit-identical to what re-encoding the fields would produce: seed
	// the cache and the wire path never serializes this transaction
	// again.
	t.cache.Store(&wireCache{enc: owned, signingLen: signingLen})
	return t, nil
}
