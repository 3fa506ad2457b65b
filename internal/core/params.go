package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/pow"
)

// Behaviour identifies a class of malicious behaviour punished by the
// credit mechanism (paper Eqn 5). The set is open for extension; the
// paper's evaluation covers lazy tips and double spending.
type Behaviour int

const (
	// BehaviourLazyTips is issuing transactions that approve a fixed
	// pair of very old transactions instead of recent tips (§III).
	BehaviourLazyTips Behaviour = iota + 1
	// BehaviourDoubleSpend is spending the same token twice via
	// conflicting transactions (§III).
	BehaviourDoubleSpend
	// BehaviourProtocol covers other protocol violations detected by
	// gateways (bad signatures after admission, malformed floods, …).
	// The paper's Eqn 5 lists only the two above; we punish protocol
	// violations with the lazy-tips coefficient by default.
	BehaviourProtocol
)

// String implements fmt.Stringer.
func (b Behaviour) String() string {
	switch b {
	case BehaviourLazyTips:
		return "lazy-tips"
	case BehaviourDoubleSpend:
		return "double-spend"
	case BehaviourProtocol:
		return "protocol-violation"
	default:
		return fmt.Sprintf("behaviour(%d)", int(b))
	}
}

// Valid reports whether b is a known behaviour class.
func (b Behaviour) Valid() bool {
	return b >= BehaviourLazyTips && b <= BehaviourProtocol
}

// Params holds the tunable constants of the credit mechanism.
type Params struct {
	// Lambda1 and Lambda2 weight the positive and negative credit parts
	// (Eqn 2). "If we want to adopt strict punishment strategy in the
	// system, we can set λ2 larger."
	Lambda1 float64
	Lambda2 float64

	// DeltaT is the credit evaluation window ΔT (Eqns 3-4).
	DeltaT time.Duration

	// AlphaLazy and AlphaDouble are the punishment coefficients α_l and
	// α_d (Eqn 5).
	AlphaLazy   float64
	AlphaDouble float64
	// AlphaProtocol punishes BehaviourProtocol events (extension).
	AlphaProtocol float64

	// MinEventAge floors (t − t_k) in Eqn 4 to keep CrN finite at the
	// instant of detection. The paper's Fig 8 shows a large-but-finite
	// plunge immediately after an attack, consistent with a one-second
	// floor at ΔT = 30 s.
	MinEventAge time.Duration

	// InitialDifficulty is D0, the PoW difficulty of a node with zero
	// credit. The paper sets 11 "for computation capability limited IoT
	// devices".
	InitialDifficulty int
	// MinDifficulty and MaxDifficulty clamp the policy output.
	MinDifficulty int
	MaxDifficulty int

	// MaxWeight caps a single transaction's weight contribution w_k so
	// a burst of approvals cannot mint unbounded credit.
	MaxWeight float64
}

// DefaultParams returns the paper's §VI-A evaluation setting:
// λ1 = 1, λ2 = 0.5, ΔT = 30 s, α_l = 0.5, α_d = 1, initial difficulty 11,
// difficulty range [1, 14].
func DefaultParams() Params {
	return Params{
		Lambda1:           1.0,
		Lambda2:           0.5,
		DeltaT:            30 * time.Second,
		AlphaLazy:         0.5,
		AlphaDouble:       1.0,
		AlphaProtocol:     0.5,
		MinEventAge:       time.Second,
		InitialDifficulty: 11,
		MinDifficulty:     1,
		MaxDifficulty:     14,
		MaxWeight:         16,
	}
}

// Parameter validation errors.
var (
	ErrBadLambda     = errors.New("lambda weights must be non-negative and not both zero")
	ErrBadDeltaT     = errors.New("delta-t must be positive")
	ErrBadAlpha      = errors.New("punishment coefficients must be non-negative")
	ErrBadDiffRange  = errors.New("difficulty range invalid")
	ErrBadMaxWeight  = errors.New("max weight must be positive")
	ErrBadMinEventAg = errors.New("min event age must be positive")
)

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Lambda1 < 0 || p.Lambda2 < 0 || (p.Lambda1 == 0 && p.Lambda2 == 0) {
		return fmt.Errorf("%w: λ1=%v λ2=%v", ErrBadLambda, p.Lambda1, p.Lambda2)
	}
	if p.DeltaT <= 0 {
		return fmt.Errorf("%w: %v", ErrBadDeltaT, p.DeltaT)
	}
	if p.AlphaLazy < 0 || p.AlphaDouble < 0 || p.AlphaProtocol < 0 {
		return ErrBadAlpha
	}
	if p.MinEventAge <= 0 {
		return fmt.Errorf("%w: %v", ErrBadMinEventAg, p.MinEventAge)
	}
	if p.MinDifficulty < pow.MinDifficulty || p.MaxDifficulty > pow.MaxDifficulty ||
		p.MinDifficulty > p.MaxDifficulty ||
		p.InitialDifficulty < p.MinDifficulty || p.InitialDifficulty > p.MaxDifficulty {
		return fmt.Errorf("%w: min=%d initial=%d max=%d",
			ErrBadDiffRange, p.MinDifficulty, p.InitialDifficulty, p.MaxDifficulty)
	}
	if p.MaxWeight <= 0 {
		return fmt.Errorf("%w: %v", ErrBadMaxWeight, p.MaxWeight)
	}
	return nil
}

// Alpha returns the punishment coefficient α(B) for a behaviour (Eqn 5).
// Unknown behaviours get the strictest configured coefficient, so a new
// attack class is never punished with zero.
func (p Params) Alpha(b Behaviour) float64 {
	switch b {
	case BehaviourLazyTips:
		return p.AlphaLazy
	case BehaviourDoubleSpend:
		return p.AlphaDouble
	case BehaviourProtocol:
		return p.AlphaProtocol
	default:
		maxAlpha := p.AlphaLazy
		if p.AlphaDouble > maxAlpha {
			maxAlpha = p.AlphaDouble
		}
		if p.AlphaProtocol > maxAlpha {
			maxAlpha = p.AlphaProtocol
		}
		return maxAlpha
	}
}

// ClampDifficulty forces d into the configured [Min, Max] range.
func (p Params) ClampDifficulty(d int) int {
	if d < p.MinDifficulty {
		return p.MinDifficulty
	}
	if d > p.MaxDifficulty {
		return p.MaxDifficulty
	}
	return d
}
