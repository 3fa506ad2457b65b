package experiments

import (
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/keydist"
)

// KeyDistConfig parameterizes the Fig-4 protocol experiment: correctness
// and cost of the three-message symmetric key distribution, plus its
// tamper- and replay-resistance (the properties §IV-C claims).
type KeyDistConfig struct {
	// Rounds of honest distribution to run and time.
	Rounds int
	// TamperTrials per message position (bit-flips that must all be
	// rejected).
	TamperTrials int
	// Freshness is the replay window used for the replay scenario.
	Freshness time.Duration
}

// DefaultKeyDistConfig returns the standard scenario sizes.
func DefaultKeyDistConfig() KeyDistConfig {
	return KeyDistConfig{Rounds: 20, TamperTrials: 10, Freshness: 5 * time.Second}
}

// KeyDistRow is one scenario's outcome.
type KeyDistRow struct {
	Case     string
	Attempts int
	// Completed counts successful distributions; for adversarial cases
	// it must be zero.
	Completed int
	Rejected  int
	MeanTime  time.Duration
	Pass      bool
}

// KeyDistResult is the protocol experiment outcome.
type KeyDistResult struct {
	Config KeyDistConfig
	Rows   []KeyDistRow
}

// runProtocol executes one full honest exchange, returning the elapsed
// time and whether both sides completed with the same key.
func runProtocol(manager, device *identity.KeyPair, opts ...keydist.Option) (time.Duration, error) {
	start := time.Now()
	ms, err := keydist.NewManagerSession(manager, device.Public(), opts...)
	if err != nil {
		return 0, err
	}
	ds := keydist.NewDeviceSession(device, manager.Public(), opts...)
	m1, err := ms.M1(device.BoxPublic())
	if err != nil {
		return 0, err
	}
	m2, err := ds.HandleM1(m1)
	if err != nil {
		return 0, err
	}
	m3, err := ms.HandleM2(m2)
	if err != nil {
		return 0, err
	}
	if err := ds.HandleM3(m3); err != nil {
		return 0, err
	}
	got, err := ds.Secret()
	if err != nil {
		return 0, err
	}
	if got != ms.Secret() {
		return 0, fmt.Errorf("key mismatch after completed protocol")
	}
	return time.Since(start), nil
}

// RunKeyDist executes the honest, tampered, and replayed scenarios.
func RunKeyDist(cfg KeyDistConfig) (*KeyDistResult, error) {
	if cfg.Rounds < 1 || cfg.TamperTrials < 1 || cfg.Freshness <= 0 {
		return nil, fmt.Errorf("keydist scenario sizes must be positive")
	}
	manager, err := identity.Generate()
	if err != nil {
		return nil, err
	}
	device, err := identity.Generate()
	if err != nil {
		return nil, err
	}
	res := &KeyDistResult{Config: cfg}

	// Honest rounds.
	honest := KeyDistRow{Case: "honest exchange", Attempts: cfg.Rounds}
	var total time.Duration
	for i := 0; i < cfg.Rounds; i++ {
		elapsed, err := runProtocol(manager, device)
		if err != nil {
			honest.Rejected++
			continue
		}
		honest.Completed++
		total += elapsed
	}
	if honest.Completed > 0 {
		honest.MeanTime = total / time.Duration(honest.Completed)
	}
	honest.Pass = honest.Completed == cfg.Rounds
	res.Rows = append(res.Rows, honest)

	// Tampered messages: flip one byte at varying positions in each of
	// M1, M2, M3; every tampered run must abort.
	for stage := 1; stage <= 3; stage++ {
		row := KeyDistRow{
			Case:     fmt.Sprintf("tampered M%d", stage),
			Attempts: cfg.TamperTrials,
		}
		for trial := 0; trial < cfg.TamperTrials; trial++ {
			completed, err := runTampered(manager, device, stage, trial)
			if err != nil {
				return nil, err
			}
			if completed {
				row.Completed++
			} else {
				row.Rejected++
			}
		}
		row.Pass = row.Completed == 0
		res.Rows = append(res.Rows, row)
	}

	// Replayed M1: a stale M1 (older than the freshness window) must be
	// rejected by the device.
	replay := KeyDistRow{Case: "replayed stale M1", Attempts: 1}
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0).UTC())
	ms, err := keydist.NewManagerSession(manager, device.Public(),
		keydist.WithClock(vc), keydist.WithFreshness(cfg.Freshness))
	if err != nil {
		return nil, err
	}
	m1, err := ms.M1(device.BoxPublic())
	if err != nil {
		return nil, err
	}
	vc.Advance(cfg.Freshness * 10) // the message sits in an attacker's buffer
	ds := keydist.NewDeviceSession(device, manager.Public(),
		keydist.WithClock(vc), keydist.WithFreshness(cfg.Freshness))
	if _, err := ds.HandleM1(m1); err != nil {
		replay.Rejected++
	} else {
		replay.Completed++
	}
	replay.Pass = replay.Rejected == 1
	res.Rows = append(res.Rows, replay)

	return res, nil
}

// runTampered runs the protocol flipping one byte of the given stage's
// message. It reports whether the protocol (incorrectly) completed.
func runTampered(manager, device *identity.KeyPair, stage, trial int) (bool, error) {
	ms, err := keydist.NewManagerSession(manager, device.Public())
	if err != nil {
		return false, err
	}
	ds := keydist.NewDeviceSession(device, manager.Public())
	flip := func(msg []byte) []byte {
		out := append([]byte(nil), msg...)
		pos := (trial * 13) % len(out)
		out[pos] ^= 0x40
		return out
	}
	m1, err := ms.M1(device.BoxPublic())
	if err != nil {
		return false, err
	}
	if stage == 1 {
		m1 = flip(m1)
	}
	m2, err := ds.HandleM1(m1)
	if err != nil {
		return false, nil // rejected, as required
	}
	if stage == 2 {
		m2 = flip(m2)
	}
	m3, err := ms.HandleM2(m2)
	if err != nil {
		return false, nil
	}
	if stage == 3 {
		m3 = flip(m3)
	}
	if err := ds.HandleM3(m3); err != nil {
		return false, nil
	}
	return true, nil
}

// Table builds the experiment's verdicts.
func (r *KeyDistResult) Table() *Table {
	t := &Table{
		Title:  "Key distribution (Fig 4) — correctness, cost, tamper/replay resistance",
		Header: []string{"case", "attempts", "completed", "rejected", "mean_time_s", "verdict"},
	}
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL"
		}
		t.add(
			row.Case,
			fmt.Sprintf("%d", row.Attempts),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.Rejected),
			fmt.Sprintf("%.6f", row.MeanTime.Seconds()),
			verdict,
		)
	}
	return t
}
