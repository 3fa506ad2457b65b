package txn

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// FuzzDecode checks that the canonical decoder never panics and that
// any input it accepts re-encodes to the identical byte string (the
// codec is bijective on its accepted set — the property that makes
// ID() well-defined across the wire).
func FuzzDecode(f *testing.F) {
	key, err := identity.Generate()
	if err != nil {
		f.Fatal(err)
	}
	seed := &Transaction{
		Trunk:     hashutil.Sum([]byte("t")),
		Branch:    hashutil.Sum([]byte("b")),
		Timestamp: time.Unix(1_700_000_000, 42),
		Kind:      KindData,
		Payload:   []byte("sensor=temperature;value=20"),
		Nonce:     12345,
	}
	seed.Sign(key)
	enc := seed.Encode()
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte{0xB1, 0x07})
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	// Shapes a batched gossip datagram can hand the decoder: an entry
	// truncated mid-field and one with a whole second encoding appended
	// (a framing bug duplicating a payload must not decode as valid).
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:len(enc)-1])
	f.Add(append(append([]byte(nil), enc...), enc...))
	f.Add(append(append([]byte(nil), enc...), 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(decoded.Encode(), data) {
			t.Fatalf("accepted input does not round-trip")
		}
		// ID must be stable under clone.
		if decoded.Clone().ID() != decoded.ID() {
			t.Fatal("clone changed the ID")
		}
	})
}

// FuzzViewAgreesWithDecode checks the two readers of the wire format
// against each other: the view refuses exactly the inputs Decode refuses,
// every accessor returns what Decode put in the field of the same name,
// the transaction a view materialises is the one Decode built, and the
// view verifies (structure, signature, PoW) exactly as the decoded
// transaction does.
func FuzzViewAgreesWithDecode(f *testing.F) {
	key, err := identity.Generate()
	if err != nil {
		f.Fatal(err)
	}
	for _, kind := range []Kind{KindData, KindTransfer, KindGenesis, Kind(0)} {
		seed := &Transaction{
			Trunk:     hashutil.Sum([]byte("t")),
			Branch:    hashutil.Sum([]byte("b")),
			Timestamp: time.Unix(1_700_000_000, 42),
			Kind:      kind,
			Payload:   EncodeTransfer(Transfer{Amount: 3, Seq: 9}),
			Nonce:     0xFEEDFACE,
		}
		seed.Sign(key)
		enc := seed.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(enc[:wireIssuerOffset])
		f.Add(append(append([]byte(nil), enc...), 0x00))
	}
	empty := &Transaction{Kind: KindData, Timestamp: time.Unix(0, -1)} // no issuer, payload or signature
	f.Add(empty.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xB1, 0x07, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		input := append([]byte(nil), data...)
		v, verr := ViewOf(data)
		d, derr := Decode(data)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("ViewOf: %v, Decode: %v", verr, derr)
		}
		if !bytes.Equal(data, input) {
			t.Fatal("a reader wrote to its input")
		}
		if verr != nil {
			if verr.Error() != derr.Error() {
				t.Fatalf("refused differently: ViewOf %q, Decode %q", verr, derr)
			}
			return
		}
		if !aliases(v.Bytes(), data) || !bytes.Equal(v.Bytes(), d.Encode()) {
			t.Fatal("the view is not over the input bytes")
		}
		same := func(tx *Transaction) bool {
			return v.Kind() == tx.Kind && v.Trunk() == tx.Trunk && v.Branch() == tx.Branch &&
				v.Timestamp().Equal(tx.Timestamp) && v.Nonce() == tx.Nonce && v.Sender() == tx.Sender() &&
				bytes.Equal(v.Issuer(), tx.Issuer) && bytes.Equal(v.Payload(), tx.Payload) &&
				bytes.Equal(v.Signature(), tx.Signature)
		}
		if !same(d) {
			t.Fatalf("accessors disagree with Decode: view %+v, decoded %+v", v, d)
		}
		m := v.Transaction(d.ID())
		if !same(m) || m.ID() != d.ID() || !bytes.Equal(m.Encode(), data) || !bytes.Equal(m.SigningBytes(), d.SigningBytes()) {
			t.Fatal("the materialised transaction is not the decoded one")
		}
		vt, verr := v.Transfer()
		if v.SpendKey(vt) != SpendKeyOf(d, vt) {
			t.Fatal("spend keys disagree")
		}
		dt, derr := TransferOf(d)
		if vt != dt || (verr == nil) != (derr == nil) {
			t.Fatalf("transfer bodies disagree: view %+v (%v), decoded %+v (%v)", vt, verr, dt, derr)
		}
		// The bulk edges check the view, the submission edge the decoded
		// fields: one rule, so one verdict.
		for _, pair := range [][2]error{{v.VerifyBasic(), d.VerifyBasic()}, {v.VerifyPoW(4), d.VerifyPoW(4)}} {
			if fmt.Sprint(pair[0]) != fmt.Sprint(pair[1]) {
				t.Fatalf("the view and the decoded transaction verify differently: %v, %v", pair[0], pair[1])
			}
		}
	})
}

// FuzzDecodeTransfer checks the transfer-body parser.
func FuzzDecodeTransfer(f *testing.F) {
	f.Add(EncodeTransfer(Transfer{Amount: 1, Seq: 2}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTransfer(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeTransfer(tr), data) {
			t.Fatal("transfer round trip mismatch")
		}
	})
}
