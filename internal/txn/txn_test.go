package txn

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

func mustKey(t *testing.T) *identity.KeyPair {
	t.Helper()
	k, err := identity.Generate()
	if err != nil {
		t.Fatalf("generate key: %v", err)
	}
	return k
}

func sampleTx(t *testing.T, key *identity.KeyPair) *Transaction {
	t.Helper()
	tx := &Transaction{
		Trunk:     hashutil.Sum([]byte("trunk")),
		Branch:    hashutil.Sum([]byte("branch")),
		Timestamp: time.Unix(1_700_000_000, 12345).UTC(),
		Kind:      KindData,
		Payload:   []byte("sensor=temperature;value=20.5"),
		Nonce:     77,
	}
	tx.Sign(key)
	return tx
}

func TestSignVerifyBasic(t *testing.T) {
	tx := sampleTx(t, mustKey(t))
	if err := tx.VerifyBasic(); err != nil {
		t.Errorf("VerifyBasic: %v", err)
	}
}

func TestVerifyBasicRejections(t *testing.T) {
	key := mustKey(t)
	tests := []struct {
		name   string
		mutate func(*Transaction)
	}{
		{"no issuer", func(tx *Transaction) { tx.Issuer = nil }},
		{"bad kind", func(tx *Transaction) { tx.Kind = Kind(42) }},
		{"zero trunk", func(tx *Transaction) { tx.Trunk = hashutil.Zero }},
		{"zero branch", func(tx *Transaction) { tx.Branch = hashutil.Zero }},
		{"tampered payload", func(tx *Transaction) { tx.Payload[0] ^= 1 }},
		{"tampered signature", func(tx *Transaction) { tx.Signature[0] ^= 1 }},
		{"swapped parents", func(tx *Transaction) { tx.Trunk, tx.Branch = tx.Branch, tx.Trunk }},
		{"shifted timestamp", func(tx *Transaction) { tx.Timestamp = tx.Timestamp.Add(time.Second) }},
		{"changed kind", func(tx *Transaction) { tx.Kind = KindTransfer }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tx := sampleTx(t, key)
			tt.mutate(tx)
			if err := tx.VerifyBasic(); err == nil {
				t.Error("mutated transaction verified")
			}
		})
	}
}

// TestVerifyBasicKeepsTheIdentitySentinel pins the wrapping: a refusal
// names both ErrBadTxSignature and the identity sentinel under it. The
// issuer is the identity point, a key of small order; the signature —
// R the identity, s = 0 — would satisfy the cofactored equation, which is
// why the rule refuses such a key before any equation.
func TestVerifyBasicKeepsTheIdentitySentinel(t *testing.T) {
	for _, tt := range []struct {
		name   string
		issuer identity.PublicKey
		want   error
	}{
		{"small-order key", append(identity.PublicKey{1}, make([]byte, 31)...), identity.ErrBadPublicKey},
		{"short key", identity.PublicKey{1, 2, 3}, identity.ErrBadKeyLength},
	} {
		tx := sampleTx(t, mustKey(t))
		tx.Issuer = tt.issuer
		tx.Signature = append([]byte{1}, make([]byte, 63)...)
		err := tx.VerifyBasic()
		if !errors.Is(err, ErrBadTxSignature) || !errors.Is(err, tt.want) {
			t.Errorf("%s: VerifyBasic = %v, want %v wrapping %v", tt.name, err, ErrBadTxSignature, tt.want)
		}
	}
}

func TestNonceNotCoveredBySignature(t *testing.T) {
	// PoW runs after signing (Fig 6), so changing the nonce must not
	// invalidate the signature.
	tx := sampleTx(t, mustKey(t))
	tx.Nonce = 123456
	if err := tx.VerifyBasic(); err != nil {
		t.Errorf("nonce change broke the signature: %v", err)
	}
}

func TestIDCommitsToNonce(t *testing.T) {
	tx := sampleTx(t, mustKey(t))
	id1 := tx.ID()
	tx.Nonce++
	if tx.ID() == id1 {
		t.Error("ID unchanged after nonce change")
	}
}

func TestGenesisValidation(t *testing.T) {
	key := mustKey(t)
	g := &Transaction{Kind: KindGenesis, Timestamp: time.Unix(0, 0)}
	g.Sign(key)
	if err := g.VerifyBasic(); err != nil {
		t.Errorf("genesis with zero parents rejected: %v", err)
	}
	g2 := &Transaction{
		Kind:      KindGenesis,
		Trunk:     hashutil.Sum([]byte("x")),
		Timestamp: time.Unix(0, 0),
	}
	g2.Sign(key)
	if err := g2.VerifyBasic(); err == nil {
		t.Error("genesis with non-zero parent accepted")
	}
}

func TestPayloadTooLarge(t *testing.T) {
	key := mustKey(t)
	tx := sampleTx(t, key)
	tx.Payload = make([]byte, MaxPayloadSize+1)
	tx.Sign(key)
	if err := tx.VerifyBasic(); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestPowDigestMatchesEqn6Structure(t *testing.T) {
	trunk := hashutil.Sum([]byte("t"))
	branch := hashutil.Sum([]byte("b"))
	// output = hash(hash(TX1) || hash(TX2) || nonce)
	inner1 := hashutil.Sum(trunk[:])
	inner2 := hashutil.Sum(branch[:])
	nonce := uint64(0xDEADBEEF)
	nb := []byte{0, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF}
	want := hashutil.SumConcat(inner1[:], inner2[:], nb)
	if got := PowDigest(trunk, branch, nonce); got != want {
		t.Errorf("PowDigest = %v, want %v", got, want)
	}
}

func TestVerifyPoW(t *testing.T) {
	tx := sampleTx(t, mustKey(t))
	// Find a nonce with ≥ 8 leading zero bits.
	for n := uint64(0); ; n++ {
		if PowDigest(tx.Trunk, tx.Branch, n).MeetsDifficulty(8) {
			tx.Nonce = n
			break
		}
	}
	if err := tx.VerifyPoW(8); err != nil {
		t.Errorf("valid pow rejected: %v", err)
	}
	if err := tx.VerifyPoW(40); err == nil {
		t.Error("insufficient pow accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	tx := sampleTx(t, mustKey(t))
	cp := tx.Clone()
	if cp.ID() != tx.ID() {
		t.Fatal("clone has different ID")
	}
	cp.Payload[0] ^= 1
	cp.Issuer[0] ^= 1
	cp.Signature[0] ^= 1
	if err := tx.VerifyBasic(); err != nil {
		t.Error("mutating the clone corrupted the original")
	}
}

// TestViewMaterialisesACloneOverSharedBytes: the view reads every field
// where the wire has it, over the transaction's own encoding, and the
// transaction it builds is Clone's — byte slices of its own, with no spare
// capacity reaching anything else — around a cache that shares the viewed
// bytes and already carries the ID.
func TestViewMaterialisesACloneOverSharedBytes(t *testing.T) {
	for name, tx := range map[string]*Transaction{
		"built":   sampleTx(t, mustKey(t)),
		"decoded": mustDecode(t, sampleTx(t, mustKey(t)).Encode()),
	} {
		t.Run(name, func(t *testing.T) {
			v := tx.View()
			enc := v.Bytes()
			if !aliases(enc, tx.Encode()) {
				t.Fatal("the view copied the encoding")
			}
			for field, view := range map[string][]byte{"issuer": v.Issuer(), "payload": v.Payload(), "signature": v.Signature()} {
				if cap(view) != len(view) {
					t.Errorf("%s has spare capacity %d: an append would write into the encoding", field, cap(view)-len(view))
				}
				if !aliases(view, enc) {
					t.Errorf("%s is a separate allocation, not a view of the encoding", field)
				}
			}

			got := v.Transaction(tx.ID())
			if got.ID() != tx.ID() || !aliases(got.Encode(), enc) {
				t.Fatal("the materialised transaction does not share the viewed encoding")
			}
			if err := got.VerifyBasic(); err != nil {
				t.Fatalf("materialised transaction does not verify: %v", err)
			}
			if !bytes.Equal(got.Issuer, tx.Issuer) || !bytes.Equal(got.Payload, tx.Payload) ||
				!bytes.Equal(got.Signature, tx.Signature) || got.Nonce != tx.Nonce ||
				got.Kind != tx.Kind || !got.Timestamp.Equal(tx.Timestamp) ||
				got.Trunk != tx.Trunk || got.Branch != tx.Branch {
				t.Fatal("materialised fields differ from the original's")
			}
			if n := testing.AllocsPerRun(100, func() { _ = got.ID() }); n != 0 {
				t.Errorf("ID on a materialised transaction made %.0f allocations, want 0", n)
			}

			before := append([]byte(nil), enc...)
			for _, field := range [][]byte{got.Issuer, got.Payload, got.Signature} {
				if aliases(field, enc) {
					t.Fatal("a materialised field aliases the encoding")
				}
				_ = append(field, 0xFF)
				for i := range field {
					field[i] ^= 0xFF
				}
			}
			again := v.Transaction(tx.ID())
			if !bytes.Equal(enc, before) || again.VerifyBasic() != nil ||
				!bytes.Equal(again.Issuer, tx.Issuer) || !bytes.Equal(again.Payload, tx.Payload) ||
				!bytes.Equal(again.Signature, tx.Signature) {
				t.Error("overwriting one materialised transaction reached the encoding or the next one")
			}
		})
	}
}

func mustDecode(t *testing.T, raw []byte) *Transaction {
	t.Helper()
	tx, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// aliases reports whether view lies inside buf's backing array.
func aliases(view, buf []byte) bool {
	if len(view) == 0 {
		return true
	}
	for i := range buf {
		if &buf[i] == &view[0] {
			return true
		}
	}
	return false
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	key := mustKey(t)
	kinds := []Kind{KindData, KindTransfer, KindAuthorization, KindKeyDist}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			tx := sampleTx(t, key)
			tx.Kind = kind
			tx.Sign(key)
			decoded, err := Decode(tx.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if decoded.ID() != tx.ID() {
				t.Error("round trip changed the ID")
			}
			if !decoded.Timestamp.Equal(tx.Timestamp) {
				t.Errorf("timestamp %v != %v", decoded.Timestamp, tx.Timestamp)
			}
			if err := decoded.VerifyBasic(); err != nil {
				t.Errorf("decoded tx invalid: %v", err)
			}
		})
	}
}

func TestDecodeRoundTripProperty(t *testing.T) {
	key := mustKey(t)
	check := func(payload []byte, nonce uint64, kindSel uint8) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		tx := &Transaction{
			Trunk:     hashutil.Sum([]byte{1}),
			Branch:    hashutil.Sum([]byte{2}),
			Timestamp: time.Unix(int64(nonce%1e9), int64(nonce%1e9)).UTC(),
			Kind:      Kind(kindSel%4) + KindData,
			Payload:   payload,
			Nonce:     nonce,
		}
		tx.Sign(key)
		decoded, err := Decode(tx.Encode())
		return err == nil && decoded.ID() == tx.ID()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	key := mustKey(t)
	valid := sampleTx(t, key).Encode()
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{0xFF, 0xFF}, valid[2:]...)},
		{"bad version", mutateAt(valid, 2, 0x7F)},
		{"truncated header", valid[:10]},
		{"truncated payload", valid[:len(valid)-40]},
		{"trailing bytes", append(append([]byte{}, valid...), 0x00)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data); err == nil {
				t.Error("malformed encoding decoded")
			}
		})
	}
}

func mutateAt(data []byte, idx int, val byte) []byte {
	out := append([]byte(nil), data...)
	out[idx] = val
	return out
}

func TestDecodeRejectsHugePayloadLength(t *testing.T) {
	key := mustKey(t)
	tx := sampleTx(t, key)
	raw := tx.Encode()
	// Payload length field sits after magic(2)+ver(1)+kind(1)+trunk(32)+
	// branch(32)+ts(8)+issuerLen(2)+issuer(32).
	off := 2 + 1 + 1 + 32 + 32 + 8 + 2 + len(tx.Issuer)
	raw[off] = 0xFF
	raw[off+1] = 0xFF
	raw[off+2] = 0xFF
	raw[off+3] = 0xFF
	if _, err := Decode(raw); err == nil {
		t.Error("huge payload length accepted")
	}
}

func TestSenderDerivation(t *testing.T) {
	key := mustKey(t)
	tx := sampleTx(t, key)
	if tx.Sender() != key.Address() {
		t.Error("Sender() != key address")
	}
}

func TestKindStringAndValid(t *testing.T) {
	for _, k := range []Kind{KindData, KindTransfer, KindAuthorization, KindKeyDist, KindGenesis} {
		if !k.Valid() {
			t.Errorf("%v not valid", k)
		}
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("%v has fallback string", k)
		}
	}
	if Kind(0).Valid() || Kind(6).Valid() {
		t.Error("out-of-range kind valid")
	}
	if !strings.HasPrefix(Kind(42).String(), "kind(") {
		t.Error("unknown kind missing fallback string")
	}
}

func TestSigningBytesIsEncodePrefix(t *testing.T) {
	tx := sampleTx(t, mustKey(t))
	full := tx.Encode()
	signing := tx.SigningBytes()
	if !bytes.HasPrefix(full, signing) {
		t.Error("SigningBytes is not a prefix of Encode")
	}
}
