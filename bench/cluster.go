package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/rpc"
	"github.com/b-iot/biot/internal/tangle"
)

// Fixed models. They are constants so that two runs — and two commits —
// are measured against the same disk, link and proof-of-work.
const (
	fsyncDelay    = 5 * time.Millisecond // every Sync holds the model disk this long
	linkDelay     = 5 * time.Millisecond // one way, per message, FIFO per peer
	powDifficulty = 8
	deviceCount   = 512
	readingBytes  = 64
	journalPath   = "journal"
)

// topology says which layers a workload switches on.
type topology struct {
	relays         int
	journalGateway bool
	journalRelays  bool
	viaRPC         bool // devices reach the gateway through rpc.Client → rpc.Server
	adaptive       bool // paper-default credit policy instead of static difficulty
	listen         bool // gateway listens even without relays (a relay joins later)
}

// fullNode is one gateway or relay with the seams around it.
type fullNode struct {
	name      string
	node      *node.FullNode
	tcp       *gossip.TCPNetwork // nil for a node without peers
	peers     *peerStats
	disk      *modelDisk // nil when the node keeps no journal
	diskStats *diskStats
	confirms  *eventLog
	replayed  int
	replayDur time.Duration
}

// eventLog collects confirmation events from Tangle().Observe.
type eventLog struct {
	mu sync.Mutex
	at []arrival
}

func (e *eventLog) OnEvent(ev tangle.Event) {
	if ev.Kind != tangle.EventConfirmed {
		return
	}
	now := time.Now()
	e.mu.Lock()
	e.at = append(e.at, arrival{id: ev.Tx, at: now})
	e.mu.Unlock()
}

func (e *eventLog) snapshot() []arrival {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]arrival(nil), e.at...)
}

type device struct {
	mu    sync.Mutex // a LightNode is not concurrent
	light *node.LightNode
	seam  *deviceGateway
}

type cluster struct {
	seed    int64
	topo    topology
	mgrKey  *identity.KeyPair
	devKeys []*identity.KeyPair
	trace   atomic.Pointer[tracer]

	gateway     *fullNode
	gatewayNode atomic.Pointer[node.FullNode] // for readers beside a reboot
	relays      []*fullNode
	target      *gatewayTarget
	devices     []*device
	hub         *arrivalHub // nil without relays
	carry       counters    // process-held counts of gateway incarnations now gone

	rpcServer *rpc.Server
	rpcHTTP   *http.Transport
}

// derivedKey makes the i-th key of a role from the workload seed.
func derivedKey(seed int64, role string, i int) *identity.KeyPair {
	h := sha256.New()
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	binary.BigEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(role))
	key, err := identity.FromSeed(h.Sum(nil))
	if err != nil {
		panic(err) // sha256 yields exactly identity.SeedSize bytes
	}
	return key
}

func (c *cluster) creditParams() core.Params {
	p := core.DefaultParams()
	p.InitialDifficulty = powDifficulty
	p.MinDifficulty = 1
	p.MaxDifficulty = pow.MaxDifficulty
	return p
}

// newFullNode builds one node: transport (when it has peers), link seam,
// node, confirmation observer and — when journaling — the disk seam and
// the journal replay.
//
// prev is the node's previous incarnation when it is rebuilt after a
// reboot (nil for a first boot): the new process inherits what outlives
// a process — the disk — and the benchmark's own counts and confirmation
// log, so that they run across the reboot.
func (c *cluster) newFullNode(name string, key *identity.KeyPair, role identity.Role, networked, journal bool, prev *fullNode) (*fullNode, error) {
	fn := &fullNode{name: name, peers: &peerStats{}, diskStats: &diskStats{}, confirms: &eventLog{}}
	if prev != nil {
		fn.disk, fn.diskStats, fn.confirms, fn.peers = prev.disk, prev.diskStats, prev.confirms, prev.peers
	}
	cfg := node.FullConfig{
		Key:        key,
		Role:       role,
		ManagerPub: c.mgrKey.Public(),
		Credit:     c.creditParams(),
		Tangle:     tangle.DefaultConfig(),
	}
	cfg.Tangle.Seed = c.seed ^ int64(hashutil.Sum([]byte(name))[0])
	if !c.topo.adaptive {
		cfg.Policy = core.StaticPolicy{Difficulty: powDifficulty}
	}
	if networked {
		tcp, err := gossip.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		fn.tcp = tcp
		cfg.Network = newLinkNet(tcp, linkDelay, fn.peers, &c.trace)
	}
	full, err := node.NewFull(cfg)
	if err != nil {
		fn.close()
		return nil, err
	}
	fn.node = full
	fn.peers.contains = full.Tangle().Contains
	full.Tangle().Observe(fn.confirms)
	if journal {
		if fn.disk == nil {
			fn.disk = newModelDisk()
		}
		start := time.Now()
		n, err := full.EnablePersistenceFS(&tracedFS{inner: fn.disk, stats: fn.diskStats, trace: &c.trace}, journalPath)
		if err != nil {
			fn.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fn.replayed, fn.replayDur = n, time.Since(start)
	}
	return fn, nil
}

func (f *fullNode) close() {
	if f.node != nil {
		_ = f.node.Close()
		if f.disk != nil {
			_ = f.node.ClosePersistence()
		}
	}
	if f.tcp != nil {
		_ = f.tcp.Close()
	}
}

// connect makes a and b gossip peers of each other.
func connect(a, b *fullNode) {
	a.tcp.AddPeer(b.tcp.Self())
	b.tcp.AddPeer(a.tcp.Self())
}

// buildCluster sets the whole system up: keys, nodes, peering, the
// published authorization list and the devices.
func buildCluster(ctx context.Context, seed int64, topo topology) (*cluster, error) {
	c := &cluster{seed: seed, topo: topo, mgrKey: derivedKey(seed, "manager", 0), target: &gatewayTarget{}}
	c.devKeys = make([]*identity.KeyPair, deviceCount)
	for i := range c.devKeys {
		c.devKeys[i] = derivedKey(seed, "device", i)
	}
	networked := topo.relays > 0 || topo.listen
	gw, err := c.newFullNode("gateway", c.mgrKey, identity.RoleManager, networked, topo.journalGateway, nil)
	if err != nil {
		return nil, err
	}
	c.gateway = gw
	c.gatewayNode.Store(gw.node)
	if topo.relays > 0 {
		c.hub = newArrivalHub(topo.relays)
	}
	for i := 0; i < topo.relays; i++ {
		relay, err := c.newRelay(i)
		if err != nil {
			c.close()
			return nil, err
		}
		relay.peers.hub = c.hub
		c.relays = append(c.relays, relay)
	}

	mgr, err := node.NewManager(gw.node)
	if err != nil {
		c.close()
		return nil, err
	}
	for _, k := range c.devKeys {
		mgr.AuthorizeDevice(k.Public(), k.BoxPublic())
	}
	if _, err := mgr.PublishAuthorization(ctx); err != nil {
		c.close()
		return nil, err
	}

	if err := c.attachDevices(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// newRelay builds relay i and peers it with the gateway.
func (c *cluster) newRelay(i int) (*fullNode, error) {
	name := fmt.Sprintf("relay-%d", i)
	relay, err := c.newFullNode(name, derivedKey(c.seed, "relay", i), identity.RoleGateway, true, c.topo.journalRelays, nil)
	if err != nil {
		return nil, err
	}
	relay.peers.observeRecv = true
	connect(c.gateway, relay)
	return relay, nil
}

// attachDevices points the device fleet at the gateway, in process or
// through the RPC surface.
func (c *cluster) attachDevices() error {
	if c.topo.viaRPC {
		c.rpcServer = rpc.NewServer(nil, rpc.WithNodeSource(c.gatewayNode.Load))
		if err := c.rpcServer.Start("127.0.0.1:0"); err != nil {
			return err
		}
		// One keep-alive connection per core: the closed loop runs
		// exactly that many device sessions.
		c.rpcHTTP = &http.Transport{MaxIdleConnsPerHost: runtime.GOMAXPROCS(0), MaxConnsPerHost: runtime.GOMAXPROCS(0)}
		client := rpc.NewClient("http://"+c.rpcServer.Addr(),
			rpc.WithHTTPClient(&http.Client{Transport: c.rpcHTTP, Timeout: 30 * time.Second}))
		c.target.set(client)
		c.target.direct.Store(c.gateway.node)
	} else {
		c.target.set(c.gateway.node)
	}
	c.devices = make([]*device, len(c.devKeys))
	for i, k := range c.devKeys {
		d := &device{seam: &deviceGateway{target: c.target}}
		light, err := node.NewLight(node.LightConfig{Key: k, Gateway: d.seam})
		if err != nil {
			return err
		}
		d.light = light
		c.devices[i] = d
	}
	return nil
}

// setFsyncDelay switches every journaling node's disk to the modelled
// flush latency (set-up and preload run with an instant disk).
func (c *cluster) setFsyncDelay(d time.Duration) {
	for _, n := range c.nodes() {
		if n.disk != nil {
			n.disk.setSyncDelay(d)
		}
	}
}

// nodes lists the gateway and every relay.
func (c *cluster) nodes() []*fullNode {
	return append([]*fullNode{c.gateway}, c.relays...)
}

// setTracer switches span recording on (non-nil) or off at every seam.
func (c *cluster) setTracer(t *tracer) {
	c.trace.Store(t)
	c.target.trace.Store(t)
}

// rebootGateway power-cycles the gateway's machine: the process is gone,
// the disk keeps only what was synced, and a new process replays the
// journal. Devices are pointed at the new process.
func (c *cluster) rebootGateway() error {
	old := c.gateway
	c.carry.addNode(old, true)
	old.disk.reboot() // first, so closing the old process cannot flush anything
	old.close()
	gw, err := c.newFullNode("gateway", c.mgrKey, identity.RoleManager, old.tcp != nil, true, old)
	if err != nil {
		return err
	}
	c.gateway = gw
	c.gatewayNode.Store(gw.node)
	for _, r := range c.relays {
		r.tcp.RemovePeer(old.tcp.Self())
		connect(gw, r)
	}
	if c.topo.viaRPC {
		c.target.direct.Store(gw.node)
	} else {
		c.target.set(gw.node)
	}
	return nil
}

func (c *cluster) close() {
	if c.rpcHTTP != nil {
		c.rpcHTTP.CloseIdleConnections()
	}
	if c.rpcServer != nil {
		_ = c.rpcServer.Close()
	}
	for _, r := range c.relays {
		r.close()
	}
	if c.gateway != nil {
		c.gateway.close()
	}
}
