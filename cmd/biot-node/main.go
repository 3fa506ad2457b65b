// Command biot-node runs a B-IoT full node — a gateway or the manager —
// with a RESTful HTTP API for light nodes and TCP gossip between full
// nodes (the counterpart of the paper's IRI deployment, §V-A).
//
// Start a manager (it prints the manager key material the deployment
// needs):
//
//	biot-node -role manager -rpc 127.0.0.1:14265 -gossip 127.0.0.1:15600 \
//	    -keyfile manager.key
//
// Start a gateway against it:
//
//	biot-node -role gateway -rpc 127.0.0.1:14266 -gossip 127.0.0.1:15601 \
//	    -manager-pub <hex from the manager> -peers 127.0.0.1:15600
//
// A manager node additionally authorizes devices listed in -authorize
// (comma-separated hex public keys) at startup.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/quality"
	"github.com/b-iot/biot/internal/rpc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "biot-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		role          = flag.String("role", "gateway", "node role: manager or gateway")
		rpcAddr       = flag.String("rpc", "127.0.0.1:14265", "RESTful API listen address")
		gossipAddr    = flag.String("gossip", "127.0.0.1:15600", "gossip listen address")
		peers         = flag.String("peers", "", "comma-separated gossip addresses of peer full nodes")
		managerPub    = flag.String("manager-pub", "", "hex manager public key (required for gateways)")
		authorize     = flag.String("authorize", "", "comma-separated hex device public keys to authorize (manager only)")
		difficulty    = flag.Int("difficulty", 11, "initial PoW difficulty D0")
		rateLimit     = flag.Int("rate-limit", 50, "per-device submissions per second (0 = unlimited)")
		persistPath   = flag.String("persist", "", "transaction log path; the ledger survives restarts when set")
		withQuality   = flag.Bool("quality", false, "enable sensor data quality control on plaintext readings")
		snapshotKeep  = flag.Duration("snapshot-keep", 0, "compact the ledger every keep/2, keeping at least this much history, on a cutoff grid every gateway shares (0 = never)")
		keyfile       = flag.String("keyfile", "", "persisted node identity: hex seed file, created 0600 on first boot")
		shard         = flag.Uint("shard", 0, "tangle namespace this gateway admits device traffic into (0 = single-tier)")
		backboneAddr  = flag.String("backbone", "", "inter-gateway backbone listen address (empty = no backbone tier)")
		backbonePeers = flag.String("backbone-peers", "", "comma-separated backbone addresses of other region gateways / the manager")
	)
	flag.Parse()
	if *backbonePeers != "" && *backboneAddr == "" {
		return errors.New("-backbone-peers requires -backbone")
	}

	var key *identity.KeyPair
	var err error
	if *keyfile != "" {
		if key, err = loadOrCreateKey(*keyfile); err != nil {
			return err
		}
	} else if key, err = identity.Generate(); err != nil {
		return fmt.Errorf("generate node account: %w", err)
	}

	var nodeRole identity.Role
	var mgrPub identity.PublicKey
	switch *role {
	case "manager":
		nodeRole = identity.RoleManager
		mgrPub = key.Public()
	case "gateway":
		nodeRole = identity.RoleGateway
		if *managerPub == "" {
			return errors.New("gateway requires -manager-pub")
		}
		if mgrPub, err = identity.DecodePublic(*managerPub); err != nil {
			return fmt.Errorf("parse -manager-pub: %w", err)
		}
	default:
		return fmt.Errorf("unknown role %q", *role)
	}

	// The supervised unit: network attachment + node. Build runs on
	// every (re)start — a watchdog restart after a poisoned journal
	// rebinds the gossip listener and replays the journal into a fresh
	// node.
	params := defaultParamsWithDifficulty(*difficulty)
	build := func() (*node.FullNode, error) {
		net, err := gossip.ListenTCP(*gossipAddr)
		if err != nil {
			return nil, err
		}
		for _, p := range splitList(*peers) {
			net.AddPeer(p)
		}
		var validator *quality.Validator
		if *withQuality {
			validator = quality.NewValidator(nil)
		}
		var backbone gossip.Network
		if *backboneAddr != "" {
			bb, err := gossip.ListenTCP(*backboneAddr)
			if err != nil {
				net.Close()
				return nil, fmt.Errorf("backbone listener: %w", err)
			}
			for _, p := range splitList(*backbonePeers) {
				bb.AddPeer(p)
			}
			backbone = bb
		}
		full, err := node.NewFull(node.FullConfig{
			Key:        key,
			Role:       nodeRole,
			ManagerPub: mgrPub,
			Credit:     params,
			Network:    net,
			RateLimit:  *rateLimit,
			Quality:    validator,

			ShardID:  uint32(*shard),
			Backbone: backbone,
		})
		if err != nil {
			if backbone != nil {
				backbone.Close()
			}
			net.Close()
			return nil, err
		}
		return full, nil
	}

	sup, err := node.NewSupervisor(node.SupervisorConfig{
		Build:         build,
		PersistPath:   *persistPath,
		WatchInterval: 2 * time.Second,
		CompactKeep:   *snapshotKeep,
	})
	if err != nil {
		return err
	}
	if err := sup.Start(); err != nil {
		return err
	}

	full := sup.Node()
	fmt.Printf("b-iot %s node\n", nodeRole)
	fmt.Printf("  address:     %s\n", full.Address().Hex())
	fmt.Printf("  public key:  %s\n", hex.EncodeToString(key.Public()))
	fmt.Printf("  rpc:         http://%s\n", *rpcAddr)
	fmt.Printf("  gossip:      %s (peers: %s)\n", full.Network().Self(), *peers)
	if *keyfile != "" {
		fmt.Printf("  identity:    %s (persisted)\n", *keyfile)
	}
	if *backboneAddr != "" {
		fmt.Printf("  backbone:    %s shard %d (peers: %s)\n",
			full.Backbone().Self(), *shard, *backbonePeers)
	}
	if *persistPath != "" {
		fmt.Printf("  persisted:   %s (%d records replayed)\n",
			*persistPath, sup.Health().Replayed)
	}

	if nodeRole == identity.RoleManager {
		mgr, err := node.NewManager(full)
		if err != nil {
			return err
		}
		for _, hexKey := range splitList(*authorize) {
			pub, err := identity.DecodePublic(hexKey)
			if err != nil {
				return fmt.Errorf("parse -authorize key %q: %w", hexKey, err)
			}
			mgr.AuthorizeDevice(pub, nil)
		}
		if *authorize != "" {
			if _, err := mgr.PublishAuthorization(context.Background()); err != nil {
				return fmt.Errorf("publish authorization: %w", err)
			}
			fmt.Printf("  authorized:  %d device(s)\n", len(splitList(*authorize)))
		}
	} else {
		// Joining gateway: snapshot-shipped bootstrap when a peer can
		// serve one (O(frontier) join), full paged replay otherwise.
		stats, err := full.Bootstrap(context.Background())
		if err != nil {
			fmt.Printf("  bootstrap:   failed (%v); continuing with live gossip\n", err)
		} else {
			fmt.Printf("  joined:      %s mode from %q — %d boundary roots, %d live txs in %v\n",
				stats.Mode, stats.Peer, stats.Boundary, full.Tangle().Size(), stats.Elapsed.Round(time.Millisecond))
		}
	}

	// The RPC server re-resolves the node per request, so a watchdog
	// restart swaps the instance under it without dropping the listener;
	// /healthz exposes the supervisor's health and /readyz whether a node
	// is up.
	srv := rpc.NewServer(nil, rpc.WithNodeSource(sup.Node), rpc.WithHealth(sup))
	if err := srv.Start(*rpcAddr); err != nil {
		sup.Stop(context.Background())
		return err
	}
	defer srv.Close()

	// Sharded tier: reconcile control-plane history and credit digests
	// over the backbone on the default cadence. The loop re-resolves the
	// node each tick so it follows watchdog restarts transparently.
	if *backboneAddr != "" {
		reconcileCtx, stopReconcile := context.WithCancel(context.Background())
		defer stopReconcile()
		go func() {
			ticker := time.NewTicker(2 * time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-reconcileCtx.Done():
					return
				case <-ticker.C:
					if n := sup.Node(); n != nil {
						n.Reconcile(reconcileCtx)
					}
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	// Graceful drain: readiness flips off, buffered broadcasts flush to
	// peers, the journal syncs and closes — bounded so a wedged peer
	// cannot hold shutdown hostage.
	fmt.Println("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return sup.Stop(ctx)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func defaultParamsWithDifficulty(d int) core.Params {
	p := core.DefaultParams()
	p.InitialDifficulty = d
	if d < p.MinDifficulty {
		p.MinDifficulty = 1
	}
	if d+6 > p.MaxDifficulty {
		p.MaxDifficulty = d + 6
	}
	return p
}
