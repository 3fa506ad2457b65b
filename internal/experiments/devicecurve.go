package experiments

import (
	"math"
	"time"
)

// DeviceCurve models a device's PoW latency as a function of difficulty:
//
//	powTime(d) = Base · Ratio^(d − D0)
//
// For a binary leading-zero-bits PoW the ideal Ratio is 2 (expected
// attempts double per bit). The paper's Raspberry Pi measurements
// (Fig 7: 10.98 s at D=12 → 245.3 s at D=14) exhibit a steeper
// per-level ratio ≈ 4.7 on IOTA's trinary PoW; the virtual-time
// experiments default to an intermediate Ratio of 3 and EXPERIMENTS.md
// reports the sensitivity.
type DeviceCurve struct {
	// Base is the PoW latency at difficulty D0 (the paper measures
	// ≈0.7 s at D0=11 on the Pi).
	Base time.Duration
	// Ratio is the per-difficulty-level latency multiplier.
	Ratio float64
	// D0 is the anchor difficulty.
	D0 int
}

// DefaultPiCurve anchors 0.7 s at difficulty 11 with ratio 3.
func DefaultPiCurve() DeviceCurve {
	return DeviceCurve{Base: 700 * time.Millisecond, Ratio: 3, D0: 11}
}

// At returns the modelled PoW latency at difficulty d.
func (c DeviceCurve) At(d int) time.Duration {
	return time.Duration(float64(c.Base) * math.Pow(c.Ratio, float64(d-c.D0)))
}

// Valid reports whether the curve is usable.
func (c DeviceCurve) Valid() bool {
	return c.Base > 0 && c.Ratio > 1 && c.D0 >= 1
}
