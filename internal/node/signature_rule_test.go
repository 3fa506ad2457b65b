package node_test

import (
	"context"
	"crypto/sha512"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/identity/edwards25519"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/txn"
)

// signWithTorsion signs tx for key as tx.Sign does, except that the
// commitment is R + T for T of order 8: s = r + k·a with k taken over
// R + T, so [s]B − [k]A − (R + T) = −T, which the signature rule's
// cofactor clears. Only the key's holder can make one.
func signWithTorsion(t *testing.T, tx *txn.Transaction, key *identity.KeyPair, rng *rand.Rand) {
	t.Helper()
	raw, _ := hex.DecodeString("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a") // a point of order 8
	torsion, err := new(edwards25519.Point).SetBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	h := sha512.Sum512(key.Seed())
	a, err := new(edwards25519.Scalar).SetBytesWithClamping(h[:32])
	if err != nil {
		t.Fatal(err)
	}
	var wide [64]byte
	rng.Read(wide[:])
	r, _ := new(edwards25519.Scalar).SetUniformBytes(wide[:])
	R := new(edwards25519.Point).ScalarBaseMult(r)
	rBytes := R.Add(R, torsion).Bytes()

	tx.Issuer, tx.Signature = key.Public(), nil
	tx.Invalidate()
	k := sha512.New()
	k.Write(rBytes)
	k.Write(tx.Issuer)
	k.Write(tx.SigningBytes())
	kScalar, _ := new(edwards25519.Scalar).SetUniformBytes(k.Sum(nil))
	s := new(edwards25519.Scalar).MultiplyAdd(kScalar, a, r)
	tx.Signature = append(rBytes, s.Bytes()...)
	tx.Invalidate()
}

// TestTorsionedReadingsAdmittedAndReplayed is the one signature rule at
// the node: an authorized device signs its readings with R + T. The
// gateway's Submit — which checks one signature at a time — admits each;
// a journaled relay fed them as gossip batches of four — which it checks
// with the batch equation — admits each batch on its first delivery; and
// the relay's journal replays on every one of 40 fresh boots. When single
// signatures were checked with no cofactor, Submit refused them, a batch
// passed for one random coefficient draw in eight, and a journal that had
// taken one failed to replay on most boots.
func TestTorsionedReadingsAdmittedAndReplayed(t *testing.T) {
	f := newSubmitFixture(t)
	rng := rand.New(rand.NewSource(0x8E))
	const batches, perBatch = 4, 4
	readings := make([][]*txn.Transaction, batches)
	for b := range readings {
		for i := 0; i < perBatch; i++ {
			f.clk.Advance(time.Second) // the fixture's rate limit: one a second
			tx := &txn.Transaction{Trunk: f.parents[0], Branch: f.parents[1], Timestamp: f.clk.Now(),
				Kind: txn.KindData, Payload: []byte(fmt.Sprintf("reading %d.%d", b, i))}
			mineTx(tx, max(f.gw.DifficultyFor(f.dev.Address()), testParams().InitialDifficulty))
			signWithTorsion(t, tx, f.dev, rng)
			if _, err := f.gw.Submit(context.Background(), tx); err != nil {
				t.Fatalf("reading %d.%d: the gateway's Submit refused an R + T signature: %v", b, i, err)
			}
			readings[b] = append(readings[b], tx)
		}
	}

	list, err := f.gw.GetTransaction(f.parents[0])
	if err != nil {
		t.Fatal(err)
	}
	const journal = "relay.journal"
	mem := chaos.NewMemFS(1)
	relay := newInjectedNode(t, f.mgrKey, f.clk, nil)
	if _, err := relay.n.EnablePersistenceFS(mem, journal); err != nil {
		t.Fatal(err)
	}
	relay.send(t, list)
	for b, batch := range readings {
		relay.send(t, batch...)
		for i, tx := range batch {
			if !relay.n.Tangle().Contains(tx.ID()) {
				t.Errorf("batch %d: the relay did not admit reading %d on its first delivery", b, i)
			}
		}
	}
	if err := errors.Join(relay.n.Close(), relay.n.ClosePersistence()); err != nil {
		t.Fatal(err)
	}

	failed := 0
	for boot := 0; boot < 40; boot++ {
		key, err := identity.Generate()
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.NewFull(node.FullConfig{Key: key, Role: identity.RoleGateway,
			ManagerPub: f.mgrKey.Public(), Credit: testParams(), Clock: f.clk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.EnablePersistenceFS(mem.Clone(), journal); err != nil {
			failed++
			t.Logf("boot %d: %v", boot, err)
		} else {
			for _, batch := range readings {
				for _, tx := range batch {
					if !n.Tangle().Contains(tx.ID()) {
						t.Errorf("boot %d: reading %s missing after the replay", boot, tx.ID().Short())
					}
				}
			}
		}
		_ = n.Close()
		_ = n.ClosePersistence()
	}
	if failed > 0 {
		t.Errorf("the relay's journal failed to replay on %d of 40 boots", failed)
	}
}

// TestSmallOrderKeyRefusedWithItsSentinel: a device whose key is of small
// order — here the identity point, which the manager authorized — cannot
// sign anything, though its reading's signature (R the identity, s = 0)
// satisfies the cofactored equation. Submit refuses it as a bad signature
// and names the identity sentinel under it.
func TestSmallOrderKeyRefusedWithItsSentinel(t *testing.T) {
	f := newSubmitFixture(t)
	f.clk.Advance(time.Second) // the fixture's rate limit: one a second
	smallOrder := append(identity.PublicKey{1}, make([]byte, 31)...)
	list := f.list(t, f.mgrKey, authz.List{Seq: 2, Devices: []string{
		identity.EncodePublic(f.dev.Public()), identity.EncodePublic(smallOrder)}})
	f.submit(t, list)
	tx := &txn.Transaction{Trunk: list.ID(), Branch: f.parents[1], Timestamp: f.clk.Now(),
		Kind: txn.KindData, Payload: []byte("anyone's reading"),
		Issuer: smallOrder, Signature: append([]byte{1}, make([]byte, 63)...)}
	mineTx(tx, max(f.gw.DifficultyFor(identity.AddressOf(smallOrder)), testParams().InitialDifficulty))
	_, err := f.gw.Submit(context.Background(), tx)
	if !errors.Is(err, txn.ErrBadTxSignature) || !errors.Is(err, identity.ErrBadPublicKey) {
		t.Errorf("Submit = %v, want %v wrapping %v", err, txn.ErrBadTxSignature, identity.ErrBadPublicKey)
	}
}
