// Package edwards25519 implements group logic for the twisted Edwards
// curve -x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2 used by Ed25519.
//
// The core of the package (point arithmetic, scalars, tables, field
// elements) is vendored from the Go standard library's internal
// crypto/internal/fips140/edwards25519 package (BSD-licensed; the
// original copyright headers are retained), with the internal-only
// byteorder/subtle shims replaced by their public equivalents and the
// exported operations nothing here calls left out. It is
// vendored because the standard library exposes no batch-verification
// primitive, and this repository takes no external module dependencies.
//
// On top of the vendored core, multiscalar.go adds the variable-time
// multi-scalar multiplication used by identity's signature rule: one
// interleaved Straus pass over any number of dynamic points plus the
// fixed basepoint, which is what turns N independent double-scalar
// verifications into one shared doubling ladder. The basepoint's scalar
// is split into 128-bit halves over B and [2^128]B, so a caller that
// splits its own scalars the same way runs half the ladder. MultByPow2
// gives a point's [2^128] multiple and MultByCofactor the [8] of the
// cofactored signature rule.
//
// Nothing in this package is constant-time unless stated: it is used
// only to verify public signatures, never with secret scalars.
package edwards25519
