package txn

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// View is a read-only view of one transaction's canonical encoding: the
// form a ledger keeps for good. Nothing is decoded ahead of time — every
// accessor reads its field at the field's wire offset — so a resident
// transaction costs its encoding and the 24-byte slice header that names
// it, where a *Transaction costs 192 bytes of fields beside the same
// encoding and 80 more for the cache that ties the two together.
//
// A View exists only over bytes that have been checked (ViewOf) or that a
// Transaction produced itself (Transaction.View), so its accessors index
// without checking again. The bytes are shared and immutable: Issuer,
// Payload, Signature and Bytes return slices of them, capacity-clipped so
// that an append reallocates, whose contents must not be written. A
// caller that needs a transaction of its own asks for Transaction.
//
// The zero View is empty (Bytes returns nil); no accessor but Bytes may be
// called on it.
type View struct{ enc []byte }

// ViewOf checks that enc is a complete canonical encoding and returns the
// view of it. It refuses exactly what Decode refuses — Decode is this check
// over a private copy — and copies nothing: the view aliases enc, which the
// caller must not change afterwards.
func ViewOf(enc []byte) (View, error) {
	// need refuses an encoding that ends inside the n bytes at off.
	need := func(off, n int) error {
		if have := len(enc) - off; have < n {
			return fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, off, have)
		}
		return nil
	}
	if err := need(0, 2); err != nil {
		return View{}, err
	}
	if magic := binary.BigEndian.Uint16(enc); magic != wireMagic {
		return View{}, fmt.Errorf("%w: 0x%04x", ErrBadMagic, magic)
	}
	if err := need(2, 2); err != nil {
		return View{}, err
	}
	if enc[2] != wireVersion {
		return View{}, fmt.Errorf("%w: %d", ErrBadVersion, enc[2])
	}
	// Both parents, the timestamp and the issuer length.
	if err := need(4, wireIssuerOffset-4); err != nil {
		return View{}, err
	}
	off := wireIssuerOffset
	issuerLen := int(binary.BigEndian.Uint16(enc[off-2:]))
	if err := need(off, issuerLen); err != nil {
		return View{}, err
	}
	off += issuerLen
	if err := need(off, 4); err != nil {
		return View{}, err
	}
	payloadLen := binary.BigEndian.Uint32(enc[off:])
	if payloadLen > MaxPayloadSize {
		return View{}, fmt.Errorf("%w: payload %d bytes", ErrFieldTooLarge, payloadLen)
	}
	off += 4
	if err := need(off, int(payloadLen)); err != nil {
		return View{}, err
	}
	off += int(payloadLen)
	if err := need(off, 8+2); err != nil { // nonce, signature length
		return View{}, err
	}
	sigLen := int(binary.BigEndian.Uint16(enc[off+8:]))
	off += 8 + 2
	if err := need(off, sigLen); err != nil {
		return View{}, err
	}
	if trailing := len(enc) - off - sigLen; trailing != 0 {
		return View{}, fmt.Errorf("%w: %d bytes", ErrTrailingBytes, trailing)
	}
	return View{enc: enc}, nil
}

// View returns the view of t's canonical encoding (see Encode for what
// keeps that encoding current).
func (t *Transaction) View() View { return View{enc: t.ensureCache().enc} }

// ViewCopy is ViewOf over a private copy of data, which is copied before
// it is checked: the view a reader keeps of bytes their holder will reuse
// or change — a pooled gossip frame, a peer's sync page. Decode is ViewCopy
// and a Transaction built around the copy.
func ViewCopy(data []byte) (View, error) { return ViewOf(append([]byte(nil), data...)) }

// VerifyStructure is Transaction.VerifyStructure for a viewed
// transaction: the same rule, read from the bytes.
func (v View) VerifyStructure() error {
	return checkStructure(v.Kind(), len(v.Issuer()), len(v.Payload()), v.Trunk(), v.Branch())
}

// VerifyBasic is Transaction.VerifyBasic for a viewed transaction.
func (v View) VerifyBasic() error {
	if err := v.VerifyStructure(); err != nil {
		return err
	}
	return checkSignature(v.Issuer(), v.SigningBytes(), v.Signature())
}

// VerifyPoW is Transaction.VerifyPoW for a viewed transaction.
func (v View) VerifyPoW(difficulty int) error {
	return checkPoW(PowDigest(v.Trunk(), v.Branch(), v.Nonce()), difficulty)
}

// SigningBytes returns the prefix of the encoding the issuer signed.
func (v View) SigningBytes() []byte {
	n := v.signingLen()
	return v.enc[:n:n]
}

// Bytes returns the canonical encoding itself, shared and read-only.
func (v View) Bytes() []byte { return v.enc }

// Kind returns the payload kind.
func (v View) Kind() Kind { return Kind(v.enc[3]) }

// Trunk returns the first approved parent.
func (v View) Trunk() hashutil.Hash { return hashutil.Hash(v.enc[4 : 4+hashutil.Size]) }

// Branch returns the second approved parent.
func (v View) Branch() hashutil.Hash {
	return hashutil.Hash(v.enc[4+hashutil.Size : 4+2*hashutil.Size])
}

// Timestamp returns the issue instant claimed by the issuer.
func (v View) Timestamp() time.Time {
	nanos := binary.BigEndian.Uint64(v.enc[4+2*hashutil.Size:])
	return time.Unix(0, int64(nanos)).UTC()
}

// issuerEnd is the offset just past the issuer bytes, where the payload
// length starts.
func (v View) issuerEnd() int {
	return wireIssuerOffset + int(binary.BigEndian.Uint16(v.enc[wireIssuerOffset-2:]))
}

// signingLen is the length of the signed prefix: the offset of the nonce.
func (v View) signingLen() int {
	at := v.issuerEnd()
	return at + 4 + int(binary.BigEndian.Uint32(v.enc[at:]))
}

// Issuer returns the issuing account's public key.
func (v View) Issuer() identity.PublicKey {
	end := v.issuerEnd()
	return identity.PublicKey(v.enc[wireIssuerOffset:end:end])
}

// Sender returns the issuing account's address.
func (v View) Sender() identity.Address { return identity.AddressOf(v.Issuer()) }

// Payload returns the kind-specific body.
func (v View) Payload() []byte {
	start, end := v.issuerEnd()+4, v.signingLen()
	return v.enc[start:end:end]
}

// Nonce returns the proof-of-work solution.
func (v View) Nonce() uint64 { return binary.BigEndian.Uint64(v.enc[v.signingLen():]) }

// Signature returns the issuer's signature.
func (v View) Signature() []byte {
	return v.enc[v.signingLen()+8+2 : len(v.enc) : len(v.enc)]
}

// Transaction builds the decoded form of the viewed transaction for a
// caller that is handed one: Clone's contract — Issuer, Payload and
// Signature are fresh copies, the caller's to change — and, like a clone,
// its encoding cache shares the viewed bytes, so ID, Encode and
// VerifyBasic serialize nothing. id must be the digest of those bytes: the
// key the holder of the view files it under.
func (v View) Transaction(id hashutil.Hash) *Transaction {
	issuer, payload, sig := v.Issuer(), v.Payload(), v.Signature()
	// One buffer for the three copies, each clipped to its own bytes.
	buf := make([]byte, 0, len(issuer)+len(payload)+len(sig))
	buf = append(append(append(buf, issuer...), payload...), sig...)
	p, s := len(issuer), len(issuer)+len(payload)
	return v.decoded(buf[:p:p], buf[p:s:s], buf[s:len(buf):len(buf)], id)
}

// decoded assembles the Transaction of v around the given byte-slice
// fields, its cache seeded with v's bytes and their digest. Fields and
// cache are one allocation.
func (v View) decoded(issuer, payload, sig []byte, id hashutil.Hash) *Transaction {
	m := &struct {
		tx    Transaction
		cache wireCache
	}{
		tx: Transaction{
			Trunk:     v.Trunk(),
			Branch:    v.Branch(),
			Issuer:    issuer,
			Timestamp: v.Timestamp(),
			Kind:      v.Kind(),
			Payload:   payload,
			Nonce:     v.Nonce(),
			Signature: sig,
		},
		cache: wireCache{enc: v.enc, signingLen: v.signingLen(), id: id, idValid: true},
	}
	m.tx.cache.Store(&m.cache)
	return &m.tx
}
