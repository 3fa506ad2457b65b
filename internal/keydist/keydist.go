// Package keydist implements the symmetric secret key distribution
// protocol of the paper's Fig 4 — three messages between the manager and
// an IoT device, "without any central trust server":
//
//	M1  Manager → Device:  Enc_PKD{ sign_SKM(SK_S, TS, nonce_a) }
//	M2  Device  → Manager: Enc_SKS{ sign_SKD(nonce_b, TS') , nonce_a }
//	M3  Manager → Device:  Enc_SKS{ sign_SKM(nonce_b, TS'') }
//
// Every message is signed by its sender ("ensures the received message
// is not tampered or damaged"), carries a timestamp ("used to resist
// replay attack"), and the nonces implement challenge–response: nonce_a
// proves the device decrypted M1 (hence holds SK_D), nonce_b proves the
// manager holds SK_S it just distributed.
//
// Messages are byte strings suitable for any transport; in B-IoT they
// ride in KindKeyDist tangle transactions addressed between the two
// parties.
package keydist

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/dataauth"
	"github.com/b-iot/biot/internal/identity"
)

// NonceSize is the challenge nonce length in bytes.
const NonceSize = 16

// DefaultFreshness is how far a message timestamp may deviate from the
// receiver's clock before the message is rejected as a replay.
const DefaultFreshness = 30 * time.Second

// Protocol errors.
var (
	ErrStaleMessage = errors.New("message timestamp outside freshness window")
	ErrBadNonce     = errors.New("challenge nonce mismatch")
	ErrBadSigner    = errors.New("message signature invalid")
	ErrBadState     = errors.New("protocol message out of order")
	ErrBadMessage   = errors.New("malformed protocol message")
)

// m1Body is the signed content of M1.
type m1Body struct {
	Key    []byte `json:"key"` // SK_S
	TS     int64  `json:"ts"`  // unix nanos
	NonceA []byte `json:"nonce_a"`
}

// m2Body is the signed content of M2.
type m2Body struct {
	NonceA []byte `json:"nonce_a"` // response to M1's challenge
	NonceB []byte `json:"nonce_b"` // fresh challenge to the manager
	TS     int64  `json:"ts"`
}

// m3Body is the signed content of M3.
type m3Body struct {
	NonceB []byte `json:"nonce_b"` // response to M2's challenge
	TS     int64  `json:"ts"`
}

// signedEnvelope wraps a body with its sender signature.
type signedEnvelope struct {
	Body []byte `json:"body"`
	Sig  []byte `json:"sig"`
}

func sealSigned(signer *identity.KeyPair, body any, encrypt func([]byte) ([]byte, error)) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("marshal body: %w", err)
	}
	env := signedEnvelope{Body: raw, Sig: signer.Sign(raw)}
	envRaw, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("marshal envelope: %w", err)
	}
	return encrypt(envRaw)
}

func openSigned(senderPub identity.PublicKey, sealed []byte, decrypt func([]byte) ([]byte, error), body any) error {
	envRaw, err := decrypt(sealed)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	var env signedEnvelope
	if err := json.Unmarshal(envRaw, &env); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if err := identity.Verify(senderPub, env.Body, env.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSigner, err)
	}
	if err := json.Unmarshal(env.Body, body); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

func newNonce() ([]byte, error) {
	n := make([]byte, NonceSize)
	if _, err := io.ReadFull(rand.Reader, n); err != nil {
		return nil, fmt.Errorf("generate nonce: %w", err)
	}
	return n, nil
}

func checkFresh(tsNanos int64, now time.Time, window time.Duration) error {
	ts := time.Unix(0, tsNanos)
	age := now.Sub(ts)
	if age < 0 {
		age = -age
	}
	if age > window {
		return fmt.Errorf("%w: |skew| %v > %v", ErrStaleMessage, age, window)
	}
	return nil
}

// ManagerSession drives the manager's side of one key distribution.
type ManagerSession struct {
	key       *identity.KeyPair // manager's account
	devicePub identity.PublicKey
	clk       clock.Clock
	freshness time.Duration

	secret dataauth.Key
	nonceA []byte
	state  int // 0: init, 1: M1 sent, 2: done
}

// DeviceSession drives the device's side of one key distribution.
type DeviceSession struct {
	key        *identity.KeyPair // device's account
	managerPub identity.PublicKey
	clk        clock.Clock
	freshness  time.Duration

	secret dataauth.Key
	nonceB []byte
	state  int // 0: init, 1: M2 sent, 2: done
}

// Option customizes a session.
type Option func(*options)

type options struct {
	clk       clock.Clock
	freshness time.Duration
}

func buildOptions(opts []Option) options {
	o := options{
		clk:       clock.Real(),
		freshness: DefaultFreshness,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithClock sets the session's time source (virtual clocks in tests).
func WithClock(c clock.Clock) Option {
	return func(o *options) { o.clk = c }
}

// WithFreshness sets the replay window.
func WithFreshness(d time.Duration) Option {
	return func(o *options) { o.freshness = d }
}

// NewManagerSession prepares a distribution of a fresh SK_S to the
// device with the given signing and box public keys.
func NewManagerSession(manager *identity.KeyPair, devicePub identity.PublicKey, opts ...Option) (*ManagerSession, error) {
	o := buildOptions(opts)
	var secret dataauth.Key
	if _, err := io.ReadFull(rand.Reader, secret[:]); err != nil {
		return nil, fmt.Errorf("generate symmetric secret: %w", err)
	}
	return &ManagerSession{
		key:       manager,
		devicePub: devicePub,
		clk:       o.clk,
		freshness: o.freshness,
		secret:    secret,
	}, nil
}

// NewManagerSessionWithKey distributes a pre-existing key (rotation of a
// group key shared by several devices).
func NewManagerSessionWithKey(manager *identity.KeyPair, devicePub identity.PublicKey, secret dataauth.Key, opts ...Option) *ManagerSession {
	o := buildOptions(opts)
	return &ManagerSession{
		key:       manager,
		devicePub: devicePub,
		clk:       o.clk,
		freshness: o.freshness,
		secret:    secret,
	}
}

// Secret returns the symmetric key being distributed.
func (m *ManagerSession) Secret() dataauth.Key { return m.secret }

// M1 builds the first message: the signed (SK_S, TS, nonce_a), sealed to
// the device's box key.
func (m *ManagerSession) M1(deviceBoxPub []byte) ([]byte, error) {
	if m.state != 0 {
		return nil, fmt.Errorf("%w: M1 already sent", ErrBadState)
	}
	nonceA, err := newNonce()
	if err != nil {
		return nil, err
	}
	m.nonceA = nonceA
	msg, err := sealSigned(m.key, m1Body{
		Key:    m.secret[:],
		TS:     m.clk.Now().UnixNano(),
		NonceA: nonceA,
	}, func(raw []byte) ([]byte, error) {
		return identity.SealTo(deviceBoxPub, raw)
	})
	if err != nil {
		return nil, fmt.Errorf("build M1: %w", err)
	}
	m.state = 1
	return msg, nil
}

// HandleM2 verifies the device's response and builds M3. After a
// successful HandleM2 the manager considers the key delivered.
func (m *ManagerSession) HandleM2(msg2 []byte) ([]byte, error) {
	if m.state != 1 {
		return nil, fmt.Errorf("%w: state %d", ErrBadState, m.state)
	}
	var body m2Body
	err := openSigned(m.devicePub, msg2, func(sealed []byte) ([]byte, error) {
		return dataauth.Decrypt(m.secret, sealed)
	}, &body)
	if err != nil {
		return nil, fmt.Errorf("open M2: %w", err)
	}
	if err := checkFresh(body.TS, m.clk.Now(), m.freshness); err != nil {
		return nil, fmt.Errorf("M2: %w", err)
	}
	if !bytes.Equal(body.NonceA, m.nonceA) {
		return nil, fmt.Errorf("M2: %w", ErrBadNonce)
	}
	if len(body.NonceB) != NonceSize {
		return nil, fmt.Errorf("M2: %w: nonce_b length %d", ErrBadMessage, len(body.NonceB))
	}
	msg3, err := sealSigned(m.key, m3Body{
		NonceB: body.NonceB,
		TS:     m.clk.Now().UnixNano(),
	}, func(raw []byte) ([]byte, error) {
		return dataauth.Encrypt(m.secret, raw, dataauth.SchemeGCM)
	})
	if err != nil {
		return nil, fmt.Errorf("build M3: %w", err)
	}
	m.state = 2
	return msg3, nil
}

// Done reports whether the manager side completed.
func (m *ManagerSession) Done() bool { return m.state == 2 }

// NewDeviceSession prepares the device's side, trusting messages signed
// by managerPub.
func NewDeviceSession(device *identity.KeyPair, managerPub identity.PublicKey, opts ...Option) *DeviceSession {
	o := buildOptions(opts)
	return &DeviceSession{
		key:        device,
		managerPub: managerPub,
		clk:        o.clk,
		freshness:  o.freshness,
	}
}

// HandleM1 decrypts M1 with the device's box key, verifies the manager's
// signature and timestamp, stores SK_S, and builds M2 echoing nonce_a
// and issuing the nonce_b challenge.
func (d *DeviceSession) HandleM1(msg1 []byte) ([]byte, error) {
	if d.state != 0 {
		return nil, fmt.Errorf("%w: state %d", ErrBadState, d.state)
	}
	var body m1Body
	err := openSigned(d.managerPub, msg1, d.key.OpenSealed, &body)
	if err != nil {
		return nil, fmt.Errorf("open M1: %w", err)
	}
	if err := checkFresh(body.TS, d.clk.Now(), d.freshness); err != nil {
		return nil, fmt.Errorf("M1: %w", err)
	}
	secret, err := dataauth.KeyFromBytes(body.Key)
	if err != nil {
		return nil, fmt.Errorf("M1: %w: %v", ErrBadMessage, err)
	}
	if len(body.NonceA) != NonceSize {
		return nil, fmt.Errorf("M1: %w: nonce_a length %d", ErrBadMessage, len(body.NonceA))
	}
	nonceB, err := newNonce()
	if err != nil {
		return nil, err
	}
	d.secret = secret
	d.nonceB = nonceB

	msg2, err := sealSigned(d.key, m2Body{
		NonceA: body.NonceA,
		NonceB: nonceB,
		TS:     d.clk.Now().UnixNano(),
	}, func(raw []byte) ([]byte, error) {
		return dataauth.Encrypt(secret, raw, dataauth.SchemeGCM)
	})
	if err != nil {
		return nil, fmt.Errorf("build M2: %w", err)
	}
	d.state = 1
	return msg2, nil
}

// HandleM3 verifies the manager's response to nonce_b, completing the
// distribution. After HandleM3 returns nil, Secret is safe to use.
func (d *DeviceSession) HandleM3(msg3 []byte) error {
	if d.state != 1 {
		return fmt.Errorf("%w: state %d", ErrBadState, d.state)
	}
	var body m3Body
	err := openSigned(d.managerPub, msg3, func(sealed []byte) ([]byte, error) {
		return dataauth.Decrypt(d.secret, sealed)
	}, &body)
	if err != nil {
		return fmt.Errorf("open M3: %w", err)
	}
	if err := checkFresh(body.TS, d.clk.Now(), d.freshness); err != nil {
		return fmt.Errorf("M3: %w", err)
	}
	if !bytes.Equal(body.NonceB, d.nonceB) {
		return fmt.Errorf("M3: %w", ErrBadNonce)
	}
	d.state = 2
	return nil
}

// Done reports whether the device side completed.
func (d *DeviceSession) Done() bool { return d.state == 2 }

// Secret returns the distributed key. Valid only after Done.
func (d *DeviceSession) Secret() (dataauth.Key, error) {
	if d.state != 2 {
		return dataauth.Key{}, fmt.Errorf("%w: protocol not complete", ErrBadState)
	}
	return d.secret, nil
}
