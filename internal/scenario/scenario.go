// Package scenario is a seed-deterministic scenario-matrix harness:
// it composes the chaos primitives (fault-injected disks and gossip,
// skewable clocks), the supervised node lifecycle, and the attack
// library into named, parameterized scenarios — lossy wireless links,
// device churn and mobility, authorization storms, adversarial
// campaigns — and runs each against a full deployment with one pinned
// set of survival assertions:
//
//   - convergence: after healing, every full node holds the identical
//     control namespace and every region's gateways the identical data
//     namespace (in a flat deployment: the identical tangle);
//   - zero admitted-transaction loss: nothing whose submit succeeded
//     on a verifiably healthy journal may vanish;
//   - zero cross-shard leakage: no node holds another region's data;
//   - credit integrity: in a flat deployment every node knows the same
//     accounts and reports the same credit for each.
//
// Every random choice — disk tear survival, gossip fault schedules,
// churn victims — derives from one seed, so a failing cell is replayed
// by pinning BIOT_SCENARIO_SEED. Each run produces one Result row;
// TestScenarioMatrix and TestScenarioMatrixLong run every cell of a tier
// and fail on any row that breaks an assertion.
package scenario

import (
	"context"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/tangle"
)

// Tier scales a scenario's deployment.
type Tier int

const (
	// TierCI is the 20-node tier (gateways + devices + manager) that
	// runs in the ordinary test suite.
	TierCI Tier = iota
	// TierLong is the 100+-node tier behind make test-scenarios-long.
	TierLong
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	if t == TierLong {
		return "long"
	}
	return "ci"
}

// Spec is one named scenario: a deployment shape, a link profile, and
// hooks that script the storm. Hooks may be nil; traffic, healing,
// convergence and the pinned assertions are the harness's job.
type Spec struct {
	// Name identifies the scenario in test names, result rows and docs.
	Name string
	// About is a one-line description for docs and result tables.
	About string
	// Tier records which tier the spec was sized for.
	Tier Tier

	// Regions selects the topology. Zero is the flat deployment: one
	// region whose data shares namespace 0 with the control plane, the
	// manager on the region's bus, no backbone. N ≥ 1 is the two-tier
	// deployment (DESIGN.md §16): N regions admitting into namespaces
	// 1..N, with the manager and each region's gateway 0 (its border
	// gateway) on a backbone bus.
	Regions int
	// Gateways/Devices size each region (plus one manager node).
	Gateways int
	Devices  int
	// PerPhase is submissions per device per traffic round.
	PerPhase int
	// StormRounds is how many faulted traffic rounds run between
	// Inject and healing (min 1).
	StormRounds int

	// Link is the wireless regime applied to every gateway's outbound
	// gossip for the storm.
	Link LinkProfile
	// SkewJump, when non-zero, jumps gateway clocks at storm start:
	// even-indexed gateways forward, odd-indexed backward.
	SkewJump time.Duration

	// Params overrides the consensus parameters; nil selects the
	// scenario defaults. Tangle overrides the ledger config; the zero
	// value selects node defaults.
	Params func() core.Params
	Tangle tangle.Config

	// Inject runs once at storm start (after Link/SkewJump apply);
	// OnRound runs before each storm traffic round; Heal runs after the
	// harness's own HealAll; Check runs last against the filled result
	// row and may reject it.
	Inject  func(ctx context.Context, c *Cluster) error
	OnRound func(ctx context.Context, c *Cluster, round int) error
	Heal    func(ctx context.Context, c *Cluster) error
	Check   func(c *Cluster, r *Result) error
}

// Result is one scenario's machine-readable outcome row.
type Result struct {
	Scenario string `json:"scenario"`
	About    string `json:"about,omitempty"`
	Tier     string `json:"tier"`
	Seed     int64  `json:"seed"`

	Gateways int `json:"gateways"`
	Devices  int `json:"devices"`
	Nodes    int `json:"nodes"` // gateways + devices + manager

	Submitted    int64 `json:"submitted"`
	Admitted     int64 `json:"admitted"`
	SubmitErrors int64 `json:"submit_errors"`
	Unauthorized int64 `json:"unauthorized_rejects"`
	// StaleAuthRejects sums the fleet's relay-path authorization
	// rejects. Under the evidence-at-admission gate it must be zero in
	// every Sybil-free scenario — including revocation storms.
	StaleAuthRejects int64 `json:"stale_auth_rejects"`

	Durable     int  `json:"guaranteed_durable"`
	LostDurable int  `json:"lost_durable"`
	Converged   bool `json:"converged"`
	SyncRounds  int  `json:"sync_rounds"`
	// TangleSize is the reference node's (the manager's) ledger size:
	// the whole tangle in a flat deployment, the control namespace in a
	// two-tier one, whose per-region data namespaces ShardSizes lists.
	TangleSize int   `json:"tangle_size"`
	ShardSizes []int `json:"shard_sizes,omitempty"`

	Restarts       int64 `json:"watchdog_restarts"`
	CreditAccounts int   `json:"credit_accounts"`
	// CreditComparisons counts cross-node credit comparisons.
	CreditComparisons int     `json:"credit_comparisons"`
	CreditParityOK    bool    `json:"credit_parity_ok"`
	MaxCreditDelta    float64 `json:"max_credit_delta"`
	MaliciousEvents   int     `json:"malicious_events"`

	Notes     string  `json:"notes,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// row snapshots the deployment shape and traffic counters into a
// result row.
func (c *Cluster) row() Result {
	return Result{
		Scenario:         c.Spec.Name,
		About:            c.Spec.About,
		Tier:             c.Spec.Tier.String(),
		Seed:             c.Seed,
		Gateways:         len(c.Gateways),
		Devices:          len(c.Devices),
		Nodes:            len(c.Gateways) + len(c.Devices) + 1,
		Submitted:        c.submitted.Load(),
		Admitted:         c.admitted.Load(),
		SubmitErrors:     c.submitErrors.Load(),
		Unauthorized:     c.unauthorized.Load(),
		StaleAuthRejects: c.staleAuthRejects(),
		Restarts:         c.totalRestarts(),
	}
}

// Finish converges the cluster and fills + enforces the pinned
// assertions: fixpoint reached, zero durable loss, zero cross-shard
// leakage, credit parity on every node and, in a flat deployment, across
// nodes. The row is filled as far as the run got even on failure.
func (c *Cluster) Finish(ctx context.Context) (Result, error) {
	rounds, converged, err := c.Converge(ctx)
	res := c.row()
	res.SyncRounds, res.Converged = rounds, converged
	if err != nil {
		return res, err
	}
	res.TangleSize = c.MgrNode.Tangle().Size()
	for _, reg := range c.Regions {
		if reg.Shard != 0 {
			res.ShardSizes = append(res.ShardSizes, reg.Gateways[0].Sup.Node().Tangle().ShardSize(reg.Shard))
		}
	}
	res.Durable, res.LostDurable = c.checkZeroLoss()
	var creditErr error
	res.CreditAccounts, res.CreditComparisons, res.MaxCreditDelta, creditErr = c.checkCreditParity()
	res.CreditParityOK = creditErr == nil
	res.MaliciousEvents = c.maliciousEvents()

	if !converged {
		return res, fmt.Errorf("nodes did not converge within %d sync rounds", rounds)
	}
	if res.LostDurable > 0 {
		return res, fmt.Errorf("%d of %d guaranteed-durable transactions lost",
			res.LostDurable, res.Durable)
	}
	if err := c.checkNoLeakage(); err != nil {
		return res, err
	}
	if creditErr != nil {
		return res, fmt.Errorf("%w (max rel delta %.3g)", creditErr, res.MaxCreditDelta)
	}
	return res, nil
}

// Run executes one scenario at the given seed: build the deployment,
// run a clean baseline round, apply the storm (link profile, clock
// skew, Inject, then StormRounds of traffic with OnRound scripting),
// heal, run a clean closing round, then Finish (converge and enforce
// the pinned assertions). The returned error is non-nil iff the
// scenario FAILED — the Result row is still filled as far as the run
// got, for diagnosis.
func Run(ctx context.Context, spec Spec, seed int64) (res Result, err error) {
	start := time.Now()
	defer func() { res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000 }()

	c, err := NewCluster(spec, seed)
	if err != nil {
		return Result{Scenario: spec.Name, About: spec.About, Tier: spec.Tier.String(), Seed: seed},
			fmt.Errorf("build cluster: %w", err)
	}
	defer c.Close()

	// Clean baseline: every submission must succeed.
	if err := c.Traffic(ctx, false); err != nil {
		return c.row(), fmt.Errorf("baseline: %w", err)
	}
	c.Clk.Advance(time.Second)

	// Storm.
	for _, g := range c.Gateways {
		g.SetFaults(spec.Link.Faults)
	}
	if spec.SkewJump != 0 {
		for i, g := range c.Gateways {
			if i%2 == 0 {
				g.Clock.Jump(spec.SkewJump)
			} else {
				g.Clock.Jump(-spec.SkewJump)
			}
		}
	}
	if spec.Inject != nil {
		if err := spec.Inject(ctx, c); err != nil {
			return c.row(), fmt.Errorf("inject: %w", err)
		}
	}
	rounds := spec.StormRounds
	if rounds < 1 {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		if spec.OnRound != nil {
			if err := spec.OnRound(ctx, c, round); err != nil {
				return c.row(), fmt.Errorf("storm round %d: %w", round, err)
			}
		}
		if err := c.Traffic(ctx, true); err != nil {
			return c.row(), fmt.Errorf("storm traffic %d: %w", round, err)
		}
		c.Clk.Advance(time.Second)
	}

	// Heal and close out cleanly.
	if err := c.HealAll(ctx); err != nil {
		return c.row(), fmt.Errorf("heal: %w", err)
	}
	if spec.Heal != nil {
		if err := spec.Heal(ctx, c); err != nil {
			return c.row(), fmt.Errorf("scenario heal: %w", err)
		}
	}
	if err := c.Traffic(ctx, false); err != nil {
		return c.row(), fmt.Errorf("closing phase: %w", err)
	}
	c.Clk.Advance(time.Second)

	if res, err = c.Finish(ctx); err != nil {
		return res, err
	}
	if min := len(c.Devices) * spec.PerPhase * 2; res.Durable < min {
		// The two clean phases alone guarantee this floor; fewer means
		// the durability bookkeeping itself broke.
		return res, fmt.Errorf("only %d guaranteed-durable transactions tracked, floor %d",
			res.Durable, min)
	}
	if spec.Check != nil {
		if err := spec.Check(c, &res); err != nil {
			return res, fmt.Errorf("scenario check: %w", err)
		}
	}
	return res, nil
}
