// Package txn defines the B-IoT transaction model.
//
// In a DAG-structured blockchain there are no blocks: "each transaction
// is an individual node linked in the distributed ledger" (paper §II-B).
// Every non-genesis transaction approves two former transactions (its
// trunk and branch parents, the "tips" it validated) and carries a
// proof-of-work nonce per Eqn 6:
//
//	output = hash{hash(TX1) || hash(TX2) || nonce}
//
// Transactions are signed by the issuing account and carry a typed
// payload: sensor data (optionally encrypted), a token transfer, a
// manager authorization list, or a key-distribution protocol message.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// Kind enumerates payload types carried by transactions.
type Kind int

const (
	// KindData is a sensor-data report (possibly AES-encrypted).
	KindData Kind = iota + 1
	// KindTransfer moves tokens between accounts; it is the payload on
	// which double-spending has concrete semantics.
	KindTransfer
	// KindAuthorization is a manager-signed device authorization list
	// update (paper Eqn 1).
	KindAuthorization
	// KindKeyDist carries one message of the Fig-4 symmetric-key
	// distribution protocol.
	KindKeyDist
	// KindGenesis marks the two genesis transactions that bootstrap the
	// tangle.
	KindGenesis
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindTransfer:
		return "transfer"
	case KindAuthorization:
		return "authorization"
	case KindKeyDist:
		return "keydist"
	case KindGenesis:
		return "genesis"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Valid reports whether k is a known payload kind.
func (k Kind) Valid() bool { return k >= KindData && k <= KindGenesis }

// MaxPayloadSize bounds payload bytes accepted by validation. The paper
// (§VI-B) observes "a 256 kilobytes data package is large enough for IoT
// transmission"; we allow 1 MiB so the Fig-10 sweep's largest message
// still fits in a single transaction.
const MaxPayloadSize = 1 << 20

// Transaction is one vertex of the tangle DAG.
type Transaction struct {
	// Trunk and Branch are the two approved parent transactions
	// ("tips" at issue time). Genesis transactions reference Zero.
	Trunk  hashutil.Hash
	Branch hashutil.Hash

	// Issuer is the Ed25519 public key of the issuing account.
	Issuer identity.PublicKey
	// Timestamp is the issue instant claimed by the issuer.
	Timestamp time.Time

	// Kind tags the payload; Payload is the kind-specific body.
	Kind    Kind
	Payload []byte

	// Nonce is the proof-of-work solution over (Trunk, Branch, Nonce).
	Nonce uint64
	// Signature is the issuer's Ed25519 signature over SigningBytes.
	Signature []byte

	// cache holds the canonical encoding (and its SHA-256) so the wire
	// path — decode, verify, ID, re-encode — serializes each
	// transaction at most once. See wireCache in encode.go for the
	// mutation contract. An atomic pointer rather than a mutex: cache
	// fills are idempotent, and concurrent readers (gossip fan-out,
	// sync pages, verification pool) must never block each other.
	cache atomic.Pointer[wireCache]
}

// ID returns the transaction identity: the SHA-256 digest of the full
// canonical encoding (parents, issuer, timestamp, payload, nonce,
// signature). Any mutation changes the ID. The digest is computed once
// per encoding and cached.
func (t *Transaction) ID() hashutil.Hash {
	return t.snapshot(true).id
}

// Sender returns the issuing account's address.
func (t *Transaction) Sender() identity.Address {
	return identity.AddressOf(t.Issuer)
}

// PowDigest computes the Eqn-6 output for the transaction's parents and
// the given nonce. Single-pass over a fixed stack buffer: no heap
// allocation per attempt, which matters both in mining loops and on the
// relay admission path that re-checks every gossiped transaction.
func PowDigest(trunk, branch hashutil.Hash, nonce uint64) hashutil.Hash {
	return hashutil.SumPow(trunk, branch, nonce)
}

// PowDigest returns the Eqn-6 output for this transaction's own nonce.
func (t *Transaction) PowDigest() hashutil.Hash {
	return PowDigest(t.Trunk, t.Branch, t.Nonce)
}

// SigningBytes returns the canonical byte string covered by the issuer's
// signature: everything except the nonce and the signature itself. The
// nonce is excluded because proof-of-work is computed after signing
// (paper Fig 6 steps 4-5: validate tips, then bundle via PoW).
//
// It is the prefix of the full canonical encoding, so a cached
// transaction pays nothing here. The returned slice aliases the cache;
// treat it as read-only.
func (t *Transaction) SigningBytes() []byte {
	c := t.ensureCache()
	return c.enc[:c.signingLen]
}

// Sign signs the transaction with key and stores the signature. The
// issuer field is set from the key; callers sign before running PoW.
// Sign resets the encoding cache: it changes Issuer and Signature, and
// the signing prefix must be serialized from the updated fields. The
// prefix is serialized for the signer only, so a reading's fits on the
// stack.
func (t *Transaction) Sign(key *identity.KeyPair) {
	t.cache.Store(nil)
	t.Issuer = key.Public()
	var prefix [signingStack]byte
	t.Signature = key.Sign(t.appendEncode(prefix[:0], false))
}

// signingStack is how long a signing prefix Sign serializes without a heap
// allocation: a reading's, sealed or not, with room to spare.
const signingStack = 512

// Validation errors. They are matched by gateways to decide whether a
// submission is merely malformed or evidence of misbehaviour.
var (
	ErrNoIssuer         = errors.New("transaction has no issuer public key")
	ErrBadKind          = errors.New("transaction has unknown payload kind")
	ErrPayloadTooLarge  = errors.New("transaction payload exceeds maximum size")
	ErrMissingParents   = errors.New("non-genesis transaction must approve two parents")
	ErrBadTxSignature   = errors.New("transaction signature invalid")
	ErrInsufficientWork = errors.New("proof of work does not meet required difficulty")
	ErrGenesisParents   = errors.New("genesis transaction must reference zero parents")
)

// VerifyStructure checks everything VerifyBasic does except the
// signature: issuer presence, payload kind and size, and parent shape.
// The batch-verification path runs it per transaction and then settles
// all the signatures with one identity.VerifyBatch call.
func (t *Transaction) VerifyStructure() error {
	return checkStructure(t.Kind, len(t.Issuer), len(t.Payload), t.Trunk, t.Branch)
}

// checkStructure is the one structural-validity rule, for a transaction's
// fields and a view's bytes alike, so that the submission edge and the
// bulk edges cannot drift apart.
func checkStructure(kind Kind, issuerLen, payloadLen int, trunk, branch hashutil.Hash) error {
	if issuerLen == 0 {
		return ErrNoIssuer
	}
	if !kind.Valid() {
		return ErrBadKind
	}
	if payloadLen > MaxPayloadSize {
		return fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, payloadLen)
	}
	if kind == KindGenesis {
		if !trunk.IsZero() || !branch.IsZero() {
			return ErrGenesisParents
		}
	} else {
		if trunk.IsZero() || branch.IsZero() {
			return ErrMissingParents
		}
	}
	return nil
}

// VerifyBasic checks structural integrity and the issuer signature. It
// does not check proof-of-work (difficulty is per-node under the
// credit-based mechanism; see VerifyPoW) nor ledger semantics.
//
// The signature is checked against the cached canonical encoding's
// signing prefix — one serialization per transaction no matter how
// often it is verified, identified or re-encoded.
func (t *Transaction) VerifyBasic() error {
	if err := t.VerifyStructure(); err != nil {
		return err
	}
	return checkSignature(t.Issuer, t.SigningBytes(), t.Signature)
}

// checkSignature verifies one issuer signature, wrapped as VerifyBasic
// reports it.
func checkSignature(issuer identity.PublicKey, signing, sig []byte) error {
	if err := identity.Verify(issuer, signing, sig); err != nil {
		return fmt.Errorf("%w: %w", ErrBadTxSignature, err)
	}
	return nil
}

// VerifyPoW checks that the transaction's nonce satisfies the given
// difficulty (leading zero bits of the Eqn-6 output).
func (t *Transaction) VerifyPoW(difficulty int) error {
	return checkPoW(t.PowDigest(), difficulty)
}

func checkPoW(digest hashutil.Hash, difficulty int) error {
	if !digest.MeetsDifficulty(difficulty) {
		return fmt.Errorf("%w: have %d bits, need %d",
			ErrInsufficientWork, digest.LeadingZeroBits(), difficulty)
	}
	return nil
}

// Clone returns a deep copy of the transaction: every byte-slice field
// is freshly allocated, so mutating either side never corrupts the
// other. When the original carries a current encoding cache the clone
// shares that snapshot — wireCache values are immutable (a nonce change
// replaces the snapshot, never patches it), so sharing is safe and the
// clone inherits the already-computed encoding and ID for free.
func (t *Transaction) Clone() *Transaction {
	cp := &Transaction{
		Trunk:     t.Trunk,
		Branch:    t.Branch,
		Issuer:    append(identity.PublicKey(nil), t.Issuer...),
		Timestamp: t.Timestamp,
		Kind:      t.Kind,
		Payload:   append([]byte(nil), t.Payload...),
		Nonce:     t.Nonce,
		Signature: append([]byte(nil), t.Signature...),
	}
	if c := t.cache.Load(); c != nil && binary.BigEndian.Uint64(c.enc[c.signingLen:]) == t.Nonce {
		cp.cache.Store(c)
	}
	return cp
}
