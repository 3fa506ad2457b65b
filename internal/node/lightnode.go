package node

import (
	"context"
	"errors"
	"fmt"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/dataauth"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/metrics"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// Gateway is the surface a light node needs from a full node: tip
// issuance, difficulty lookup, transaction retrieval and submission.
// It is implemented in-process by *FullNode and over HTTP by rpc.Client,
// so devices run identically against either.
type Gateway interface {
	TipsForApproval() (trunk, branch hashutil.Hash, err error)
	// DifficultyFor answers 0 when the gateway cannot answer at all; a
	// light node then fails the post with ErrNodeDown.
	DifficultyFor(addr identity.Address) int
	GetTransaction(id hashutil.Hash) (*txn.Transaction, error)
	Submit(ctx context.Context, t *txn.Transaction) (tangle.Info, error)
	// TransactionsByKind pages through attached transactions of one
	// kind; devices poll it to receive key-distribution messages.
	TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error)
}

var _ Gateway = (*FullNode)(nil)

// LightConfig configures a LightNode.
type LightConfig struct {
	// Key is the device's account.
	Key *identity.KeyPair
	// Gateway is the full node the device talks to ("find closest
	// gateway enabled RPC port", Fig 6).
	Gateway Gateway
	// Worker runs proof-of-work; its CostFactor emulates the device's
	// hardware class. Nil selects a plain worker.
	Worker *pow.Worker
	// Clock is the device's time source; nil selects the real clock.
	Clock clock.Clock
}

// submitAttempts bounds resubmission when difficulty shifted between
// query and submission (e.g. a malicious event landed).
const submitAttempts = 3

// LightNode is an IoT device: it validates tips, runs PoW, and submits
// transactions through a gateway. It keeps no ledger state beyond its
// own spend sequence and (when issued) its symmetric data key.
type LightNode struct {
	cfg    LightConfig
	worker *pow.Worker
	clk    clock.Clock

	// dataKey is the distributed SK_S; nil until key distribution
	// completes (only sensitive-data devices receive one).
	dataKey *dataauth.Key
	scheme  dataauth.Scheme

	// nextSeq is the device's local spend sequence counter.
	nextSeq uint64

	// PowTime records PoW latency per transaction — the quantity the
	// paper's Fig 9 reports.
	PowTime metrics.Histogram
}

// Light-node errors.
var (
	ErrNoGateway  = errors.New("light node has no gateway")
	ErrTipInvalid = errors.New("tip failed validation")
	ErrNoKey      = errors.New("light node requires a key pair")
)

// NewLight constructs a light node.
func NewLight(cfg LightConfig) (*LightNode, error) {
	if cfg.Key == nil {
		return nil, ErrNoKey
	}
	if cfg.Gateway == nil {
		return nil, ErrNoGateway
	}
	worker := cfg.Worker
	if worker == nil {
		worker = &pow.Worker{}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real()
	}
	return &LightNode{
		cfg:    cfg,
		worker: worker,
		clk:    clk,
		scheme: dataauth.SchemeGCM,
	}, nil
}

// Key returns the device's account.
func (l *LightNode) Key() *identity.KeyPair { return l.cfg.Key }

// Gateway returns the full node this device talks to.
func (l *LightNode) Gateway() Gateway { return l.cfg.Gateway }

// Address returns the device's account address.
func (l *LightNode) Address() identity.Address { return l.cfg.Key.Address() }

// SetDataKey installs the symmetric key obtained through key
// distribution; subsequent sensitive readings are encrypted with it.
func (l *LightNode) SetDataKey(k dataauth.Key, scheme dataauth.Scheme) {
	key := k
	l.dataKey = &key
	if scheme.Valid() {
		l.scheme = scheme
	}
}

// HasDataKey reports whether a symmetric key has been installed.
func (l *LightNode) HasDataKey() bool { return l.dataKey != nil }

// validateTip implements Fig 6 step 5's "validate these two tips": the
// device fetches each tip and checks that it is the transaction the ID
// names, then its structure and signature, before bundling work on top of
// it. Without the first check a gateway could have the device validate
// one (well-signed) transaction while approving another.
func (l *LightNode) validateTip(id hashutil.Hash) (*txn.Transaction, error) {
	t, err := l.cfg.Gateway.GetTransaction(id)
	if err != nil {
		return nil, fmt.Errorf("fetch tip %s: %w", id.Short(), err)
	}
	if got := t.ID(); got != id {
		return nil, fmt.Errorf("%w: asked for %s, gateway answered %s", ErrTipInvalid, id.Short(), got.Short())
	}
	if t.Kind == txn.KindGenesis {
		return t, nil // genesis is pinned, not signature-checked
	}
	if err := t.VerifyBasic(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrTipInvalid, id.Short(), err)
	}
	return t, nil
}

// SubmitResult reports a completed submission.
type SubmitResult struct {
	Info       tangle.Info
	Difficulty int
	Pow        pow.Result
}

// submit builds, signs, mines and submits one transaction of the given
// kind: the Fig-6 steps 4-5 loop. On difficulty or tip races it refreshes
// and tries again, up to submitAttempts attempts in all.
func (l *LightNode) submit(ctx context.Context, kind txn.Kind, payload []byte) (SubmitResult, error) {
	var lastErr error
	for attempt := 0; attempt < submitAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return SubmitResult{}, err
		}
		trunk, branch, err := l.cfg.Gateway.TipsForApproval()
		if err != nil {
			return SubmitResult{}, fmt.Errorf("get tips: %w", err)
		}
		if _, err := l.validateTip(trunk); err != nil {
			lastErr = err
			continue
		}
		if branch != trunk {
			if _, err := l.validateTip(branch); err != nil {
				lastErr = err
				continue
			}
		}

		t := &txn.Transaction{
			Trunk:     trunk,
			Branch:    branch,
			Timestamp: l.clk.Now(),
			Kind:      kind,
			Payload:   payload,
		}
		t.Sign(l.cfg.Key)

		difficulty := l.cfg.Gateway.DifficultyFor(l.Address())
		if difficulty < 1 {
			return SubmitResult{}, fmt.Errorf("get difficulty: gateway answered %d: %w", difficulty, ErrNodeDown)
		}
		res, err := l.worker.Attach(ctx, t, difficulty)
		if err != nil {
			return SubmitResult{}, fmt.Errorf("proof of work: %w", err)
		}
		l.PowTime.Observe(res.Elapsed)

		info, err := l.cfg.Gateway.Submit(ctx, t)
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrWrongDifficulty) || errors.Is(err, tangle.ErrUnknownParent) {
				continue // difficulty shifted or tips re-orged: retry fresh
			}
			return SubmitResult{}, err
		}
		return SubmitResult{Info: info, Difficulty: difficulty, Pow: res}, nil
	}
	return SubmitResult{}, fmt.Errorf("submission retries exhausted: %w", lastErr)
}

// PostReading publishes a sensor reading (Fig 6 steps 4-5). When the
// device holds a data key the reading is encrypted ("IoT device 2 will
// encrypt data by using symmetric secret key before posting"); otherwise
// it is published in clear.
func (l *LightNode) PostReading(ctx context.Context, reading []byte) (SubmitResult, error) {
	payload, err := dataauth.Seal(reading, l.dataKey, l.scheme)
	if err != nil {
		return SubmitResult{}, fmt.Errorf("seal reading: %w", err)
	}
	return l.submit(ctx, txn.KindData, payload)
}

// Transfer moves tokens to another account, consuming the device's next
// spend sequence.
func (l *LightNode) Transfer(ctx context.Context, to identity.Address, amount uint64) (SubmitResult, error) {
	seq := l.nextSeq
	res, err := l.submit(ctx, txn.KindTransfer, txn.EncodeTransfer(txn.Transfer{
		To:     to,
		Amount: amount,
		Seq:    seq,
	}))
	if err != nil {
		return SubmitResult{}, err
	}
	l.nextSeq = seq + 1
	return res, nil
}

// SubmitRaw submits a pre-built payload of the given kind — used by the
// manager tooling (authorization lists, key-distribution messages) and
// the attack injectors.
func (l *LightNode) SubmitRaw(ctx context.Context, kind txn.Kind, payload []byte) (SubmitResult, error) {
	return l.submit(ctx, kind, payload)
}
