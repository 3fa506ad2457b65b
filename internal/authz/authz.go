// Package authz implements B-IoT's blockchain-based device management
// (paper §IV-A3, Eqn 1):
//
//	TX = Sign_SKM(PK_d1, PK_d2, ..., PK_dn)
//
// "Only the manager has the rights to publish or update the
// authorization list of devices"; the manager's public key is pinned in
// the genesis configuration. Gateways fetch the latest list from the
// ledger and "decline to provide services for unauthorized IoT devices",
// which is the system's defense against Sybil and DDoS attacks (§VI-C).
package authz

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// List is the payload of a KindAuthorization transaction: the complete
// current set of authorized entities. Lists are whole-state (not deltas)
// so "deauthorize" is simply publishing a list without the device; the
// highest sequence wins.
type List struct {
	// Seq orders list updates; gateways apply the highest seen.
	Seq uint64 `json:"seq"`
	// Devices are hex-encoded public keys of authorized IoT devices.
	Devices []string `json:"devices"`
	// Gateways are hex-encoded public keys of recognized full nodes.
	Gateways []string `json:"gateways"`
}

// EncodeList serializes a list payload.
func EncodeList(l List) ([]byte, error) {
	data, err := json.Marshal(l)
	if err != nil {
		return nil, fmt.Errorf("encode authorization list: %w", err)
	}
	return data, nil
}

// DecodeList parses a list payload.
func DecodeList(data []byte) (List, error) {
	var l List
	if err := json.Unmarshal(data, &l); err != nil {
		return List{}, fmt.Errorf("decode authorization list: %w", err)
	}
	return l, nil
}

// Registry is the gateway-side view of the authorization state. Safe for
// concurrent use.
type Registry struct {
	manager identity.Address

	mu        sync.RWMutex
	seq       uint64
	appliedAt time.Time
	devices   map[identity.Address]identity.PublicKey
	gateways  map[identity.Address]identity.PublicKey

	// Historical list versions for evidence-at-admission checks (see
	// window.go): sequence → member-set, bounded by maxVersions and the
	// snapshot-grid PruneVersions. prunedThrough is the floor below
	// which versions have been discarded.
	versions      map[uint64]*memberView
	prunedThrough uint64
	maxVersions   int
}

// Registry errors.
var (
	ErrNotManager    = errors.New("authorization update not issued by the manager")
	ErrNotAuthList   = errors.New("transaction is not an authorization list")
	ErrStaleList     = errors.New("authorization list sequence not newer than applied")
	ErrBadListedKey  = errors.New("authorization list contains malformed key")
	ErrNilManagerKey = errors.New("registry requires the manager address")
)

// NewRegistry creates a registry trusting lists signed by manager — the
// address whose key is "hard-coded into genesis config".
func NewRegistry(manager identity.Address) (*Registry, error) {
	if manager.IsZero() {
		return nil, ErrNilManagerKey
	}
	return &Registry{
		manager:     manager,
		devices:     make(map[identity.Address]identity.PublicKey),
		gateways:    make(map[identity.Address]identity.PublicKey),
		versions:    make(map[uint64]*memberView),
		maxVersions: DefaultMaxVersions,
	}, nil
}

// Manager returns the pinned manager address.
func (r *Registry) Manager() identity.Address { return r.manager }

// Apply validates and applies an authorization transaction: the issuer
// must be the pinned manager, the transaction signature must already be
// verified by the caller (gateways verify before attach), and the list
// sequence must be newer than any applied. A stale sequence returns
// ErrStaleList — but the list is still recorded in the historical
// version window first (it is authoritative for its own sequence);
// callers that treat stale deliveries as ordinary history should use
// Observe instead.
func (r *Registry) Apply(t *txn.Transaction, at time.Time) error {
	applied, list, err := r.observe(t.View(), at)
	if err != nil {
		return err
	}
	if !applied {
		return fmt.Errorf("%w: got %d, applied %d", ErrStaleList, list.Seq, r.Seq())
	}
	return nil
}

// IsAuthorizedDevice reports whether addr may submit transactions. The
// manager itself is always authorized.
func (r *Registry) IsAuthorizedDevice(addr identity.Address) bool {
	if addr == r.manager {
		return true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.devices[addr]
	return ok
}

// IsGateway reports whether addr is a recognized full node.
func (r *Registry) IsGateway(addr identity.Address) bool {
	if addr == r.manager {
		return true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.gateways[addr]
	return ok
}

// DeviceKey returns the public key registered for a device address.
func (r *Registry) DeviceKey(addr identity.Address) (identity.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.devices[addr]
	return pub, ok
}

// Seq returns the applied list sequence.
func (r *Registry) Seq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// Devices returns the authorized device addresses, sorted.
func (r *Registry) Devices() []identity.Address {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]identity.Address, 0, len(r.devices))
	for addr := range r.devices {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Builder helps the manager construct successive authorization lists.
type Builder struct {
	mu       sync.Mutex
	seq      uint64
	devices  map[string]struct{}
	gateways map[string]struct{}
}

// NewBuilder creates an empty list builder.
func NewBuilder() *Builder {
	return &Builder{
		devices:  make(map[string]struct{}),
		gateways: make(map[string]struct{}),
	}
}

// AuthorizeDevice adds a device key to the next list.
func (b *Builder) AuthorizeDevice(pub identity.PublicKey) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.devices[identity.EncodePublic(pub)] = struct{}{}
}

// DeauthorizeDevice removes a device key from the next list.
func (b *Builder) DeauthorizeDevice(pub identity.PublicKey) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.devices, identity.EncodePublic(pub))
}

// RegisterGateway adds a gateway key to the next list.
func (b *Builder) RegisterGateway(pub identity.PublicKey) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gateways[identity.EncodePublic(pub)] = struct{}{}
}

// SeedSeq raises the builder's sequence so the next list supersedes an
// already-applied one. A restarted manager replays its own published
// lists out of the journal (they are retained across snapshots); its
// next list must continue that sequence, not collide with it.
func (b *Builder) SeedSeq(seq uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if seq > b.seq {
		b.seq = seq
	}
}

// Next produces the next List payload, bumping the sequence.
func (b *Builder) Next() List {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	list := List{Seq: b.seq}
	for k := range b.devices {
		list.Devices = append(list.Devices, k)
	}
	for k := range b.gateways {
		list.Gateways = append(list.Gateways, k)
	}
	sort.Strings(list.Devices)
	sort.Strings(list.Gateways)
	return list
}
