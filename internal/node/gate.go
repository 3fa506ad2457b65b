package node

import (
	"errors"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/authz"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/txn"
)

// edge is what one way into the ledger demands beyond the structure and
// signature every way demands (DESIGN.md §7) — values, which gate applies
// by one rule:
//
//	edge             authorization source   proof of work    rate limit   timestamp ahead of now
//	Submit           live registry          DifficultyFor    yes          refused past maxClockSkew
//	relay, sync      evidence verdict       MinDifficulty    no           parked past maxClockSkew
//	journal replay   none                   none             no           any
type edge struct {
	// authorize judges the sender of anything but an authorization list,
	// which only the manager issues; nil demands no issuer rule at all.
	authorize func(v txn.View, sender identity.Address) error
	// difficulty is the proof of work demanded of sender; nil demands none.
	difficulty  func(sender identity.Address, now time.Time) int
	rateLimited bool // spends a device's FullConfig.RateLimit budget
	boundsClock bool // refuses a timestamp more than maxClockSkew ahead of now
}

// maxClockSkew bounds how far ahead of this node's clock a signed stamp
// may run, as a snapshot cuts by it. Honest clocks in the skewed-clocks
// scenario stand up to a minute apart; the bound is twice that.
const maxClockSkew = 2 * time.Minute

// edges returns the submission edge's demands and the relay edges'. A relay
// demands the PoW floor, not this node's credit-derived demand: it cannot
// re-derive that — the miner's view may count weight from the transaction's
// own descendants — and demanding it wedged catch-up sync forever in the
// chaos soak. Its authorization is advisory DoS protection, not the
// decision: only a definitive Unauthorized verdict refuses here, sparing the
// signature work; admitRelayed re-takes the verdict just before attach,
// where an Unresolved one parks in quarantine.
func (n *FullNode) edges() (submission, relayed edge) {
	floor := n.engine.Ledger().Params().MinDifficulty
	submission = edge{
		authorize: func(_ txn.View, sender identity.Address) error {
			if !n.registry.IsAuthorizedDevice(sender) && !n.registry.IsGateway(sender) {
				return fmt.Errorf("%w: %s", ErrUnauthorizedDevice, sender.Short())
			}
			return nil
		},
		difficulty:  n.engine.DifficultyFor,
		rateLimited: true,
		boundsClock: true,
	}
	relayed = edge{
		authorize: func(v txn.View, _ identity.Address) error {
			if verdict, ok := n.relayAuthVerdict(v); ok && verdict == authz.VerdictUnauthorized {
				return errNoEvidence
			}
			return nil
		},
		difficulty: func(identity.Address, time.Time) int { return floor },
	}
	return submission, relayed
}

// errNoEvidence refuses a relayed Sybil (DESIGN.md §15).
var errNoEvidence = fmt.Errorf("%w: a member of no list its evidence reaches", ErrUnauthorizedDevice)

// gate judges a run of in-flight records by one rule in one order, and
// returns nil when every record passes, else one error per record, nil for
// the ones that pass:
//
//  1. structure, and the timestamp where the edge bounds it;
//  2. issuer: an authorization list only from the manager, anything else
//     as the edge's authorization source allows;
//  3. proof of work at the edge's demand;
//  4. signature, settled for the run through the verify stage;
//  5. the per-device rate limit, where the edge has one.
//
// The cheap checks come first, so a Sybil flood costs no signature
// verification, and the rate limit last, so only a transaction that would
// otherwise be admitted spends its sender's budget. What a refusal means —
// a counted reject or a refused journal — is the caller's.
func (n *FullNode) gate(recs []inflight, e edge, now time.Time) []error {
	var errs []error
	passed := func(i int) bool { return errs == nil || errs[i] == nil }
	refuse := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(recs))
		}
		errs[i] = err
	}
	for i, rec := range recs {
		if err := n.precheck(rec.View, e, now); err != nil {
			refuse(i, err)
		}
	}
	// Signatures are settled a stretch of survivors at a time: the whole
	// run, unless something failed above.
	for start, end := 0, 0; start < len(recs); start = end + 1 {
		for end = start; end < len(recs) && passed(end); end++ {
		}
		for j, err := range n.verify.settle(recs[start:end]) {
			if err != nil {
				refuse(start+j, fmt.Errorf("%w: %w", txn.ErrBadTxSignature, err))
			}
		}
	}
	for i, rec := range recs {
		if e.rateLimited && passed(i) {
			if sender := rec.Sender(); !n.allowRate(sender, now) {
				refuse(i, fmt.Errorf("%w: %s", ErrRateLimited, sender.Short()))
			}
		}
	}
	return errs
}

// precheck is the gate's steps 1–3 for one transaction.
func (n *FullNode) precheck(v txn.View, e edge, now time.Time) error {
	if err := v.VerifyStructure(); err != nil {
		return err
	}
	if e.boundsClock && v.Timestamp().After(now.Add(maxClockSkew)) {
		return fmt.Errorf("%w: stamped %v, now %v", ErrTimestampAhead, v.Timestamp(), now)
	}
	sender := v.Sender()
	if e.authorize != nil {
		if v.Kind() == txn.KindAuthorization {
			if sender != n.registry.Manager() {
				return fmt.Errorf("%w: authorization list from %s", authz.ErrNotManager, sender.Short())
			}
		} else if err := e.authorize(v, sender); err != nil {
			return err
		}
	}
	if e.difficulty != nil {
		if err := v.VerifyPoW(e.difficulty(sender, now)); err != nil {
			return fmt.Errorf("%w: %v", ErrWrongDifficulty, err)
		}
	}
	return nil
}

// countRefusal files a refusal from the gate under its one counter (see
// Counters). The live edges call it; replay counts nothing.
func (n *FullNode) countRefusal(err error) {
	switch c := &n.counters; {
	case errors.Is(err, errNoEvidence):
		c.StaleAuthRejects.Inc()
	case errors.Is(err, ErrUnauthorizedDevice), errors.Is(err, authz.ErrNotManager):
		c.Unauthorized.Inc()
	case errors.Is(err, ErrRateLimited):
		c.RateLimited.Inc()
	default: // structure, timestamp, proof of work, signature
		c.Rejected.Inc()
	}
}
