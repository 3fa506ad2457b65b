package biot

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/quality"
	"github.com/b-iot/biot/internal/rpc"
	"github.com/b-iot/biot/internal/tangle"
)

// SystemConfig configures a factory deployment.
type SystemConfig struct {
	// Credit holds the consensus constants; the zero value selects the
	// paper's defaults.
	Credit CreditParams
	// Policy maps credit to difficulty; nil selects the additive
	// default.
	Policy DifficultyPolicy
	// Tangle configures the ledger; the zero value selects defaults.
	Tangle tangle.Config
	// RateLimit bounds per-device submissions per second at each full
	// node (0 disables).
	RateLimit int
	// Clock overrides the time source (virtual clocks in simulations).
	Clock clock.Clock
	// Quality, when non-nil, validates plaintext sensor readings at
	// every full node; violations are punished through the credit
	// mechanism.
	Quality *quality.Validator
	// PersistDir, when non-empty, journals each full node's ledger to
	// `<PersistDir>/<node>.log` and replays it on restart.
	PersistDir string
}

// System is a B-IoT deployment: the manager full node plus gateways,
// connected over an in-memory gossip bus. It is the entry point for
// in-process use; cmd/biot-node runs the same components over TCP.
type System struct {
	cfg        SystemConfig
	bus        *gossip.Bus
	managerKey *identity.KeyPair
	manager    *node.Manager
	gateways   []*Gateway
}

// Gateway is one full node serving devices.
type Gateway struct {
	full *node.FullNode
	rpc  *rpc.Server
}

// Node exposes the underlying full node (tip selection, credit, stats).
func (g *Gateway) Node() *node.FullNode { return g.full }

// Address returns the gateway's account address.
func (g *Gateway) Address() Address { return g.full.Address() }

// ServeRPC starts the gateway's RESTful HTTP API on addr
// (e.g. "127.0.0.1:0") and returns the bound address.
func (g *Gateway) ServeRPC(addr string) (string, error) {
	if g.rpc != nil {
		return "", errors.New("rpc already serving")
	}
	srv := rpc.NewServer(g.full)
	if err := srv.Start(addr); err != nil {
		return "", err
	}
	g.rpc = srv
	return srv.Addr(), nil
}

// Close stops the gateway's RPC server, if any.
func (g *Gateway) Close() error {
	if g.rpc == nil {
		return nil
	}
	err := g.rpc.Close()
	g.rpc = nil
	return err
}

// NewSystem boots a deployment: it generates the manager account, pins
// its key in the genesis configuration, and starts the manager full
// node.
func NewSystem(cfg SystemConfig) (*System, error) {
	managerKey, err := identity.Generate()
	if err != nil {
		return nil, fmt.Errorf("generate manager account: %w", err)
	}
	return NewSystemWithKey(cfg, managerKey)
}

// NewSystemWithKey boots a deployment under an existing manager
// account.
func NewSystemWithKey(cfg SystemConfig, managerKey *identity.KeyPair) (*System, error) {
	if managerKey == nil {
		return nil, errors.New("system requires a manager key")
	}
	s := &System{cfg: cfg, bus: gossip.NewBus(), managerKey: managerKey}
	full, err := s.startNode("manager", managerKey, identity.RoleManager)
	if err != nil {
		return nil, err
	}
	if s.manager, err = node.NewManager(full); err != nil {
		return nil, err
	}
	return s, nil
}

// startNode starts one full node of the deployment on the gossip bus
// under name, journaled to <PersistDir>/<name>.log when persistence is
// on.
func (s *System) startNode(name string, key *identity.KeyPair, role identity.Role) (*node.FullNode, error) {
	net, err := s.bus.Join(name)
	if err != nil {
		return nil, err
	}
	full, err := node.NewFull(node.FullConfig{
		Key:        key,
		Role:       role,
		ManagerPub: s.managerKey.Public(),
		Credit:     s.cfg.Credit,
		Policy:     s.cfg.Policy,
		Tangle:     s.cfg.Tangle,
		Clock:      s.cfg.Clock,
		Network:    net,
		RateLimit:  s.cfg.RateLimit,
		Quality:    s.cfg.Quality,
	})
	if err != nil {
		return nil, err
	}
	if s.cfg.PersistDir != "" {
		if _, err := full.EnablePersistence(filepath.Join(s.cfg.PersistDir, name+".log")); err != nil {
			return nil, err
		}
	}
	return full, nil
}

// ManagerPublic returns the manager's public signing key (what devices
// pin to trust key-distribution messages).
func (s *System) ManagerPublic() identity.PublicKey { return s.managerKey.Public() }

// Manager exposes the management tooling.
func (s *System) Manager() *node.Manager { return s.manager }

// ManagerGateway returns the manager's own full node as a gateway
// (single-node deployments submit through it).
func (s *System) ManagerGateway() *Gateway {
	return &Gateway{full: s.manager.Node()}
}

// AddGateway starts a new gateway full node, registers it with the
// manager, and syncs it to the current ledger.
func (s *System) AddGateway(ctx context.Context) (*Gateway, error) {
	gwKey, err := identity.Generate()
	if err != nil {
		return nil, fmt.Errorf("generate gateway account: %w", err)
	}
	full, err := s.startNode(fmt.Sprintf("gateway-%d", len(s.gateways)), gwKey, identity.RoleGateway)
	if err != nil {
		return nil, err
	}
	s.manager.RegisterGateway(gwKey.Public())
	full.SyncAll(ctx)
	gw := &Gateway{full: full}
	s.gateways = append(s.gateways, gw)
	return gw, nil
}

// Gateways returns the started gateways (not including the manager).
func (s *System) Gateways() []*Gateway {
	out := make([]*Gateway, len(s.gateways))
	copy(out, s.gateways)
	return out
}

// AuthorizeDevice stages a device account for the next authorization
// list. Call PublishAuthorization to make it effective.
func (s *System) AuthorizeDevice(key *KeyPair) {
	s.manager.AuthorizeDevice(key.Public(), key.BoxPublic())
}

// DeauthorizeDevice removes a device account from the next list.
func (s *System) DeauthorizeDevice(key *KeyPair) {
	s.manager.DeauthorizeDevice(key.Public())
}

// PublishAuthorization posts the staged authorization list (Eqn 1).
func (s *System) PublishAuthorization(ctx context.Context) error {
	_, err := s.manager.PublishAuthorization(ctx)
	return err
}

// DistributeKey runs the full Fig-4 exchange with the device through
// the tangle and returns once both sides hold the symmetric key.
func (s *System) DistributeKey(ctx context.Context, dev *Device) error {
	if _, err := s.manager.StartKeyDistribution(ctx, dev.Address()); err != nil {
		return err
	}
	return s.driveExchange(ctx, dev)
}

// ShareKey re-issues the key already distributed to owner to recipient
// through its own Fig-4 exchange — the §IV-A4 cross-factory sharing
// flow: the group key never travels out of band.
func (s *System) ShareKey(ctx context.Context, owner, recipient *Device) error {
	if _, err := s.manager.ShareKey(ctx, owner.Address(), recipient.Address()); err != nil {
		return err
	}
	return s.driveExchange(ctx, recipient)
}

// RotateKey revokes the device's issued key and distributes a fresh one.
func (s *System) RotateKey(ctx context.Context, dev *Device) error {
	if _, err := s.manager.RotateKey(ctx, dev.Address()); err != nil {
		return err
	}
	return s.driveExchange(ctx, dev)
}

// driveExchange pumps both protocol sides until the device completes.
func (s *System) driveExchange(ctx context.Context, dev *Device) error {
	done := make(chan error, 1)
	go func() {
		done <- dev.light.RunKeyDistribution(ctx, s.managerKey.Public(), 5*time.Millisecond)
	}()
	for {
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			return ctx.Err()
		default:
			if _, err := s.manager.PumpKeyDistribution(ctx); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// IssuedKey returns the symmetric key distributed to the device, once
// the exchange completed.
func (s *System) IssuedKey(dev *Device) (DataKey, bool) {
	return s.manager.IssuedKey(dev.Address())
}

// Mint endows an account with tokens on the manager's settled ledger
// (the genesis allocation of the transfer experiments).
func (s *System) Mint(addr Address, amount uint64) {
	s.manager.Node().Tokens().Mint(addr, amount)
}

// CreditOf evaluates a node's current credit at the manager.
func (s *System) CreditOf(addr Address) Credit {
	n := s.manager.Node()
	return n.Engine().CreditOf(addr, n.Clock().Now())
}

// DifficultyFor returns the PoW difficulty currently demanded of addr.
func (s *System) DifficultyFor(addr Address) int {
	return s.manager.Node().DifficultyFor(addr)
}

// Stats returns the manager's ledger statistics.
func (s *System) Stats() tangle.Stats {
	return s.manager.Node().Tangle().StatsNow()
}

// Flush blocks until every node's asynchronous broadcast queue has
// drained — the barrier to call before reading one device's submission
// through a *different* gateway. Single-gateway flows never need it.
func (s *System) Flush(ctx context.Context) error {
	if err := s.manager.Node().FlushBroadcast(ctx); err != nil {
		return err
	}
	for _, gw := range s.gateways {
		if err := gw.full.FlushBroadcast(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Events returns the recorded malicious events for addr.
func (s *System) Events(addr Address) []core.EventRecord {
	return s.manager.Node().Engine().Ledger().Events(addr)
}

// Close shuts the deployment down: broadcast pipelines drain and stop,
// then RPC servers, journals and the bus close.
func (s *System) Close() error {
	var firstErr error
	for _, gw := range s.gateways {
		if err := gw.full.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := gw.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if s.cfg.PersistDir != "" {
			if err := gw.full.ClosePersistence(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := s.manager.Node().Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if s.cfg.PersistDir != "" {
		if err := s.manager.Node().ClosePersistence(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.bus.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
