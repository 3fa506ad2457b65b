// Package identity implements blockchain accounts for B-IoT nodes.
//
// The paper (§IV-A1): "Each sensor will generate a blockchain account
// when initialized, i.e., a pair of public/secret key (PK, SK), which is
// the unique identifier in the system. The key pair for each device is
// not only used to sign transactions, but also to make the key
// distribution."
//
// Keys are Ed25519; an Address is the SHA-256 digest of the public key
// and serves as the compact on-ledger identifier.
package identity

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"github.com/b-iot/biot/internal/hashutil"
)

// Role describes the functional division of nodes in the system
// (paper §IV-A): light nodes are power-constrained IoT devices; full
// nodes maintain the tangle. The manager is a specific full node.
type Role int

const (
	// RoleDevice is a light node: a power-constrained IoT device that
	// verifies tips, runs PoW, and submits transactions via gateways.
	RoleDevice Role = iota + 1
	// RoleGateway is a full node that maintains the tangle network and
	// relays transactions from authorized devices.
	RoleGateway
	// RoleManager is the specific full node whose public key is pinned
	// in the genesis configuration and that manages device authorization.
	RoleManager
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleDevice:
		return "device"
	case RoleGateway:
		return "gateway"
	case RoleManager:
		return "manager"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Valid reports whether r is a known role.
func (r Role) Valid() bool {
	return r == RoleDevice || r == RoleGateway || r == RoleManager
}

// Address is the compact on-ledger identifier of an account: the SHA-256
// digest of its Ed25519 public key.
type Address = hashutil.Hash

// PublicKey is an Ed25519 public key.
type PublicKey = ed25519.PublicKey

// KeyPair is a blockchain account: an Ed25519 signing key pair, a
// derived X25519 key-agreement key (for ECIES; see ecies.go), and the
// derived address. Secret material never leaves the struct; sign through
// Sign and decrypt through OpenSealed.
type KeyPair struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	box  *ecdh.PrivateKey
	addr Address
}

// Generate creates a fresh account from crypto/rand.
func Generate() (*KeyPair, error) {
	return GenerateFrom(rand.Reader)
}

// GenerateFrom creates an account from the given entropy source. Tests
// use deterministic readers to build reproducible fixtures.
func GenerateFrom(r io.Reader) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("generate ed25519 key: %w", err)
	}
	box, err := deriveBoxKey(priv.Seed())
	if err != nil {
		return nil, err
	}
	return &KeyPair{pub: pub, priv: priv, box: box, addr: AddressOf(pub)}, nil
}

// SeedSize is the length of the entropy seed an account derives from.
const SeedSize = ed25519.SeedSize

// FromSeed reconstructs the account deterministically derived from a
// 32-byte seed — the durable form of an identity. Seed/FromSeed
// round-trip: a node that persists its seed resumes the same address,
// signing key, and ECIES key after a restart.
func FromSeed(seed []byte) (*KeyPair, error) {
	if len(seed) != SeedSize {
		return nil, fmt.Errorf("identity seed is %d bytes, want %d", len(seed), SeedSize)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	box, err := deriveBoxKey(priv.Seed())
	if err != nil {
		return nil, err
	}
	return &KeyPair{pub: pub, priv: priv, box: box, addr: AddressOf(pub)}, nil
}

// Seed returns the account's entropy seed (a copy). It is the
// account's whole secret: treat it like the private key.
func (k *KeyPair) Seed() []byte {
	return append([]byte(nil), k.priv.Seed()...)
}

// AddressOf derives the account address for a public key.
func AddressOf(pub PublicKey) Address {
	return hashutil.Sum(pub)
}

// Public returns the public key (a copy; callers cannot mutate ours).
func (k *KeyPair) Public() PublicKey {
	out := make(ed25519.PublicKey, len(k.pub))
	copy(out, k.pub)
	return out
}

// Address returns the account address.
func (k *KeyPair) Address() Address { return k.addr }

// Sign signs message with the account's secret key.
func (k *KeyPair) Sign(message []byte) []byte {
	return ed25519.Sign(k.priv, message)
}

// Errors returned by Verify and VerifyBatch (batch.go).
var (
	ErrBadSignature = errors.New("signature verification failed")
	// ErrBadPublicKey reports a key that is no curve point or is of small
	// order, and a hex key of the wrong length.
	ErrBadPublicKey = errors.New("malformed public key")
	// ErrBadKeyLength reports a public key of the wrong byte length, so
	// callers can tell a malformed key from a signature that merely
	// fails to verify.
	ErrBadKeyLength = errors.New("public key has wrong length")
)

// EncodePublic returns the hex encoding of a public key, used in RPC
// payloads and authorization lists.
func EncodePublic(pub PublicKey) string { return hex.EncodeToString(pub) }

// DecodePublic parses a hex-encoded public key.
func DecodePublic(s string) (PublicKey, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("decode public key hex: %w", err)
	}
	if len(raw) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("%w: length %d", ErrBadPublicKey, len(raw))
	}
	return PublicKey(raw), nil
}
