package node

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/dataauth"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/keydist"
	"github.com/b-iot/biot/internal/txn"
)

// Manager is the orchestration layer of the specific full node that
// "is responsible for managing IoT devices in a smart factory": it
// publishes authorization lists (Eqn 1) and drives the manager side of
// the Fig-4 key distribution protocol over the tangle.
type Manager struct {
	full   *FullNode
	client *LightNode

	mu       sync.Mutex
	builder  *authz.Builder
	boxKeys  map[identity.Address][]byte
	issued   *dataauth.KeyStore
	sessions map[string]*managerKeySession
	kdOffset int
}

type managerKeySession struct {
	session *keydist.ManagerSession
	device  identity.Address
}

// Manager errors.
var (
	ErrNotManagerNode = errors.New("full node is not a manager")
	ErrUnknownDevice  = errors.New("device not registered with the manager")
	ErrNoSession      = errors.New("no key distribution session for device")
)

// NewManager wraps a manager-role full node with management tooling.
func NewManager(full *FullNode) (*Manager, error) {
	if full.Role() != identity.RoleManager {
		return nil, ErrNotManagerNode
	}
	client, err := NewLight(LightConfig{
		Key:     full.cfg.Key,
		Gateway: full,
		Clock:   full.cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("manager submission client: %w", err)
	}
	builder := authz.NewBuilder()
	// Resume the list sequence past whatever the node replayed: the
	// manager's earlier lists survive restarts (and snapshots — they are
	// retained kinds), and a fresh builder colliding with its own
	// applied sequence would deadlock the control plane.
	builder.SeedSeq(full.Registry().Seq())
	return &Manager{
		full:     full,
		client:   client,
		builder:  builder,
		boxKeys:  make(map[identity.Address][]byte),
		issued:   dataauth.NewKeyStore(),
		sessions: make(map[string]*managerKeySession),
	}, nil
}

// Node returns the underlying full node.
func (m *Manager) Node() *FullNode { return m.full }

// Address returns the manager's account address.
func (m *Manager) Address() identity.Address { return m.full.Address() }

// RegisterGateway records a gateway key for the next authorization list
// (Fig 6 step 1: "initialize gateways ... records gateways identifiers
// in blockchain").
func (m *Manager) RegisterGateway(pub identity.PublicKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.builder.RegisterGateway(pub)
}

// AuthorizeDevice stages a device for the next authorization list. The
// device presents both its signing key and its encryption (box) key at
// provisioning; the box key is what M1 of key distribution seals to.
func (m *Manager) AuthorizeDevice(signPub identity.PublicKey, boxPub []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.builder.AuthorizeDevice(signPub)
	if len(boxPub) > 0 {
		m.boxKeys[identity.AddressOf(signPub)] = append([]byte(nil), boxPub...)
	}
}

// DeauthorizeDevice removes a device from the next authorization list.
func (m *Manager) DeauthorizeDevice(signPub identity.PublicKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.builder.DeauthorizeDevice(signPub)
	delete(m.boxKeys, identity.AddressOf(signPub))
}

// PublishAuthorization posts the staged authorization list to the
// ledger as a manager-signed transaction (Eqn 1). Gateways pick it up
// when the transaction is attached.
func (m *Manager) PublishAuthorization(ctx context.Context) (SubmitResult, error) {
	m.mu.Lock()
	list := m.builder.Next()
	m.mu.Unlock()
	payload, err := authz.EncodeList(list)
	if err != nil {
		return SubmitResult{}, err
	}
	res, err := m.client.SubmitRaw(ctx, txn.KindAuthorization, payload)
	if err != nil {
		return SubmitResult{}, fmt.Errorf("publish authorization list: %w", err)
	}
	// Authorization is control-plane: gateways must see the new list
	// before the next device submission, so wait out the async fan-out.
	if err := m.full.FlushBroadcast(ctx); err != nil {
		return res, fmt.Errorf("publish authorization list: %w", err)
	}
	return res, nil
}

// StartKeyDistribution opens a Fig-4 session with the device and posts
// M1 to the ledger. The caller pumps the exchange with
// PumpKeyDistribution until IssuedKey reports completion.
func (m *Manager) StartKeyDistribution(ctx context.Context, device identity.Address, opts ...keydist.Option) (string, error) {
	return m.openSession(ctx, device, "M1", func(devicePub identity.PublicKey, opts []keydist.Option) (*keydist.ManagerSession, error) {
		return keydist.NewManagerSession(m.full.cfg.Key, devicePub, opts...)
	}, opts)
}

// openSession opens a Fig-4 session with device, which build makes from
// the device's registered key, and posts its M1 to the ledger; what names
// the M1 in an error.
func (m *Manager) openSession(ctx context.Context, device identity.Address, what string,
	build func(identity.PublicKey, []keydist.Option) (*keydist.ManagerSession, error), opts []keydist.Option) (string, error) {
	m.mu.Lock()
	boxPub, okBox := m.boxKeys[device]
	m.mu.Unlock()
	if !okBox {
		return "", fmt.Errorf("%w: %s (no box key)", ErrUnknownDevice, device.Short())
	}
	devicePub, ok := m.full.Registry().DeviceKey(device)
	if !ok {
		return "", fmt.Errorf("%w: %s (not in applied authorization list)", ErrUnknownDevice, device.Short())
	}

	session, err := build(devicePub, append([]keydist.Option{keydist.WithClock(m.full.cfg.Clock)}, opts...))
	if err != nil {
		return "", err
	}
	m1, err := session.M1(boxPub)
	if err != nil {
		return "", err
	}
	sid, err := newSessionID(rand.Reader)
	if err != nil {
		return "", err
	}
	payload, err := keydist.EncodeEnvelope(keydist.Envelope{
		Session: sid,
		From:    m.Address(),
		To:      device,
		Stage:   keydist.StageM1,
		Body:    m1,
	})
	if err != nil {
		return "", err
	}
	if _, err := m.client.SubmitRaw(ctx, txn.KindKeyDist, payload); err != nil {
		return "", fmt.Errorf("post %s: %w", what, err)
	}
	m.mu.Lock()
	m.sessions[sid] = &managerKeySession{session: session, device: device}
	m.mu.Unlock()
	return sid, nil
}

// PumpKeyDistribution consumes new key-distribution messages addressed
// to the manager (device M2 replies), answers each with M3, and records
// completed distributions. It returns the number of sessions completed
// in this pass.
func (m *Manager) PumpKeyDistribution(ctx context.Context) (int, error) {
	m.mu.Lock()
	offset := m.kdOffset
	m.mu.Unlock()

	msgs := m.full.Tangle().EncodedByKind(txn.KindKeyDist, offset)
	completed := 0
	for _, enc := range msgs {
		offset++
		v, err := txn.ViewOf(enc)
		if err != nil {
			continue
		}
		env, err := keydist.DecodeEnvelope(v.Payload())
		if err != nil || !env.AddressedTo(m.Address()) || env.Stage != keydist.StageM2 {
			continue
		}
		m.mu.Lock()
		ks := m.sessions[env.Session]
		m.mu.Unlock()
		if ks == nil || ks.session.Done() {
			continue
		}
		// The device signed M2; the envelope's From must match.
		if env.From != ks.device {
			continue
		}
		m3, err := ks.session.HandleM2(env.Body)
		if err != nil {
			// Tampered or replayed M2: drop it; the device can retry.
			continue
		}
		payload, err := keydist.EncodeEnvelope(keydist.Envelope{
			Session: env.Session,
			From:    m.Address(),
			To:      ks.device,
			Stage:   keydist.StageM3,
			Body:    m3,
		})
		if err != nil {
			continue
		}
		if _, err := m.client.SubmitRaw(ctx, txn.KindKeyDist, payload); err != nil {
			return completed, fmt.Errorf("post M3: %w", err)
		}
		m.issued.Put(ks.device, ks.session.Secret())
		completed++
	}

	m.mu.Lock()
	if offset > m.kdOffset {
		m.kdOffset = offset
	}
	m.mu.Unlock()
	return completed, nil
}

// IssuedKey returns the symmetric key the manager distributed to device,
// once the exchange completed.
func (m *Manager) IssuedKey(device identity.Address) (dataauth.Key, bool) {
	return m.issued.Get(device)
}

// RotateKey revokes the device's issued key and starts a fresh Fig-4
// distribution ("it is flexible to update symmetric keys if needed",
// §IV-C). Until the new exchange completes, IssuedKey reports no key
// for the device — readers must not trust the old one for new data.
// Drive the exchange to completion with PumpKeyDistribution as usual.
func (m *Manager) RotateKey(ctx context.Context, device identity.Address, opts ...keydist.Option) (string, error) {
	if _, ok := m.issued.Get(device); !ok {
		return "", fmt.Errorf("%w: %s (no issued key to rotate)", ErrNoSession, device.Short())
	}
	m.issued.Delete(device)
	sid, err := m.StartKeyDistribution(ctx, device, opts...)
	if err != nil {
		return "", fmt.Errorf("rotate key: %w", err)
	}
	return sid, nil
}

// ShareKey re-issues the symmetric key already distributed to owner to
// another authorized account — the §IV-A4 cross-factory sharing flow:
// the recipient receives the group key through its own Fig-4 exchange
// instead of any out-of-band channel.
func (m *Manager) ShareKey(ctx context.Context, owner, recipient identity.Address, opts ...keydist.Option) (string, error) {
	secret, ok := m.issued.Get(owner)
	if !ok {
		return "", fmt.Errorf("%w: %s (no issued key to share)", ErrNoSession, owner.Short())
	}
	return m.openSession(ctx, recipient, "shared-key M1", func(recipientPub identity.PublicKey, opts []keydist.Option) (*keydist.ManagerSession, error) {
		return keydist.NewManagerSessionWithKey(m.full.cfg.Key, recipientPub, secret, opts...), nil
	}, opts)
}

func newSessionID(r io.Reader) (string, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return "", fmt.Errorf("generate session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
