// Package hashutil provides the hash primitives shared by every ledger
// component: a fixed-size Hash value type, SHA-256 helpers, leading-zero
// counting for proof-of-work targets, and a Merkle tree used by the
// chain-structured baseline blockchain.
package hashutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
)

// Size is the byte length of a Hash (SHA-256).
const Size = sha256.Size

// Hash is a 32-byte SHA-256 digest. It is a value type: comparable, usable
// as a map key, and copied at API boundaries by construction.
type Hash [Size]byte

// Zero is the all-zero hash. It denotes "no parent" in genesis records.
var Zero Hash

// Sum hashes data with SHA-256.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// SumConcat hashes the concatenation of the given byte slices without
// intermediate copies beyond the hasher's own buffering.
func SumConcat(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// SumPow computes the paper's Eqn-6 proof-of-work output
// hash(hash(a) || hash(b) || nonce) in a single pass over a fixed
// stack buffer. Unlike SumConcat it allocates nothing, which is what
// lets mining loops and relay-admission PoW checks run allocation-free.
func SumPow(a, b Hash, nonce uint64) Hash {
	var buf [2*Size + 8]byte
	inner := sha256.Sum256(a[:])
	copy(buf[:Size], inner[:])
	inner = sha256.Sum256(b[:])
	copy(buf[Size:2*Size], inner[:])
	binary.BigEndian.PutUint64(buf[2*Size:], nonce)
	return sha256.Sum256(buf[:])
}

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == Zero }

// Bytes returns a fresh copy of the digest bytes.
func (h Hash) Bytes() []byte {
	out := make([]byte, Size)
	copy(out, h[:])
	return out
}

// Hex returns the lowercase hex encoding of h.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// Short returns the first 8 hex characters, for logs and display.
func (h Hash) Short() string { return h.Hex()[:8] }

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }

// MarshalText implements encoding.TextMarshaler (hex).
func (h Hash) MarshalText() ([]byte, error) {
	return []byte(h.Hex()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler (hex).
func (h *Hash) UnmarshalText(text []byte) error {
	parsed, ok := decodeHex(text)
	if !ok {
		return fmt.Errorf("decode hash hex: %q is not %d hex characters", text, 2*Size)
	}
	*h = parsed
	return nil
}

// ErrBadHashHex reports an undecodable hash string.
var ErrBadHashHex = errors.New("malformed hash hex")

// FromHex parses a 64-character hex string into a Hash. It decodes in
// place and allocates nothing unless it fails: the RPC surface parses a
// hash or three per exchange.
func FromHex(s string) (Hash, error) {
	h, ok := decodeHex(s)
	if !ok {
		return Zero, fmt.Errorf("%w: %q is not %d hex characters", ErrBadHashHex, s, 2*Size)
	}
	return h, nil
}

// decodeHex decodes exactly 2·Size hex digits of either case, and reports
// whether s was that.
func decodeHex[S string | []byte](s S) (h Hash, ok bool) {
	if len(s) != 2*Size {
		return Zero, false
	}
	for i := range h {
		hi, lo := unhex(s[2*i]), unhex(s[2*i+1])
		if hi > 0xF || lo > 0xF {
			return Zero, false
		}
		h[i] = hi<<4 | lo
	}
	return h, true
}

// unhex returns the value of one hex digit, above 0xF for anything else.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 0xFF
}

// LeadingZeroBits counts the number of consecutive zero bits at the start
// of h. This is the proof-of-work difficulty metric from the paper's
// Eqn 6: "the requirement of minimum length of prefix zero".
func (h Hash) LeadingZeroBits() int {
	total := 0
	for _, b := range h {
		if b == 0 {
			total += 8
			continue
		}
		total += bits.LeadingZeros8(b)
		break
	}
	return total
}

// MeetsDifficulty reports whether h has at least difficulty leading zero
// bits. A non-positive difficulty is met by every hash.
func (h Hash) MeetsDifficulty(difficulty int) bool {
	if difficulty <= 0 {
		return true
	}
	if difficulty > Size*8 {
		return false
	}
	return h.LeadingZeroBits() >= difficulty
}

// Compare lexicographically compares two hashes, returning -1, 0, or 1.
func (h Hash) Compare(other Hash) int {
	for i := range h {
		switch {
		case h[i] < other[i]:
			return -1
		case h[i] > other[i]:
			return 1
		}
	}
	return 0
}
