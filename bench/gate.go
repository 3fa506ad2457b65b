package main

import (
	"fmt"
	"math"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/txn"
)

// gate checks that the program's outputs are correct once the load has
// drained. Each string it returns is a reason the run is void. What only
// says how well the run measured — a generator that fired late, too few
// samples for a p99 — is a warning on res: it depends on what else the
// host is doing, not on the program, and the latencies already carry it
// (an open-loop reading is timed from when it was due).
func gate(c *cluster, obs *observations, res *runResult) []string {
	var void []string
	fail := func(format string, args ...any) { void = append(void, fmt.Sprintf(format, args...)) }

	// The gateway and every relay hold the same transaction set.
	ref := ledgerDigest(c.gateway)
	for _, r := range c.relays {
		if d := ledgerDigest(r); d != ref {
			fail("%s holds %d transactions (digest %s), gateway %d (%s)", r.name, d.count, d.fold.Short(), ref.count, ref.fold.Short())
		}
	}

	// Credit for every device agrees across nodes, evaluated at one
	// instant.
	now := time.Now()
	for _, key := range c.devKeys {
		want := c.gateway.node.Engine().CreditOf(key.Address(), now)
		for _, r := range c.relays {
			got := r.node.Engine().CreditOf(key.Address(), now)
			if math.Abs(got.Cr-want.Cr) > 1e-9*math.Max(1, math.Abs(want.Cr)) {
				fail("credit of device %s: %s has %v, gateway %v", key.Address().Short(), r.name, got.Cr, want.Cr)
				break
			}
		}
		if len(void) > 8 {
			break
		}
	}

	// Every reading whose submit returned survives a power cut on each
	// journaling node: read the journal as a rebooted machine would.
	admitted := admittedIDs(obs.allOps)
	for _, n := range c.nodes() {
		if n.disk == nil {
			continue
		}
		durable, err := durableIDs(n.disk)
		if err != nil {
			fail("%s: journal unreadable after power cut: %v", n.name, err)
			continue
		}
		lost := 0
		for _, id := range admitted {
			if _, ok := durable[id]; !ok {
				lost++
			}
		}
		if lost > 0 {
			fail("%s: %d of %d admitted readings not in the journal after a power cut", n.name, lost, len(admitted))
		}
	}

	for _, n := range c.nodes() {
		if errs := n.node.CountersView().JournalErrors.Value(); errs > 0 {
			fail("%s: %d journal errors", n.name, errs)
		}
	}

	// A steady open loop must fire on time. (The trickle of recover-catchup
	// is exempt: the readings an outage held back all resume at once.)
	if obs.latency.open && len(obs.cycles) == 0 && !res.cfg.smoke {
		if late := percentile(durationsMS(obs.latency.lateness), 99); late > ms(latenessLimit) {
			res.warnf("load generator ran late: p99 %.2f ms > %v", late, latenessLimit)
		}
	}
	if frac := safeDiv(float64(res.failed), float64(res.attempted)); frac > failedFracLimit {
		fail("%d of %d readings failed", res.failed, res.attempted)
	}
	if res.attempted == 0 {
		fail("no readings attempted")
	}
	if !res.cfg.smoke {
		// The traced run reports p99s; they need ten samples beyond them.
		if p, _ := highestPercentile(res.counts["admit_samples"]); p < 99 {
			res.warnf("%d admit samples support no percentile above p%v; p99 needs %d beyond it", res.counts["admit_samples"], p, minBeyond)
		}
	}
	if res.counts["unconfirmed"] > 0 {
		fail("%d admitted readings of the latency phase never confirmed on every node", res.counts["unconfirmed"])
	}
	if res.counts["unreplicated"] > 0 {
		fail("%d admitted readings of the latency phase never reached every relay", res.counts["unreplicated"])
	}
	return void
}

// digest identifies a set of transactions without holding it.
type digest struct {
	count int
	fold  hashutil.Hash
}

func ledgerDigest(n *fullNode) digest {
	tg := n.node.Tangle()
	d := digest{count: tg.Size()}
	for _, id := range tg.OrderedIDs(0, d.count) {
		for i := range d.fold {
			d.fold[i] ^= id[i]
		}
	}
	return d
}

// durableIDs reads the journal a machine would find after losing power
// now.
func durableIDs(disk *modelDisk) (map[hashutil.Hash]struct{}, error) {
	ids := make(map[hashutil.Hash]struct{})
	log, err := store.OpenFS(disk.clone(), journalPath, func(t *txn.Transaction) error {
		ids[t.ID()] = struct{}{}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ids, log.Close()
}
