package experiments

import (
	"context"
	"crypto/rand"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/dataauth"
)

// Fig10Config parameterizes the Fig-10 sweep: "impact of symmetric
// encryption algorithm on transaction efficiency" — AES running time vs
// message length, from 64 B to 1 MiB (the paper's log-scale x-axis).
type Fig10Config struct {
	// MinExp..MaxExp sweep message lengths 2^MinExp..2^MaxExp bytes;
	// the paper uses 6..20.
	MinExp int
	MaxExp int
	// Trials per length; the mean is reported.
	Trials int
	// Scheme selects the AES construction (GCM default; CTR-HMAC is the
	// closer match to the paper's raw AES + integrity).
	Scheme dataauth.Scheme
}

// DefaultFig10Config returns the paper's sweep.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{MinExp: 6, MaxExp: 20, Trials: 9, Scheme: dataauth.SchemeGCM}
}

// Fig10Row is one message length's measurement.
type Fig10Row struct {
	Bytes       int
	EncryptMean time.Duration
	DecryptMean time.Duration
	// ThroughputMBs is encryption throughput in MiB/s.
	ThroughputMBs float64
}

// Fig10Result is the regenerated figure.
type Fig10Result struct {
	Config Fig10Config
	Rows   []Fig10Row
}

// RunFig10 measures AES encryption/decryption across message lengths.
func RunFig10(ctx context.Context, cfg Fig10Config) (*Fig10Result, error) {
	if cfg.MinExp < 1 || cfg.MaxExp < cfg.MinExp || cfg.MaxExp > 26 {
		return nil, fmt.Errorf("fig10 exponent range [%d, %d] invalid", cfg.MinExp, cfg.MaxExp)
	}
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("fig10 trials %d must be ≥ 1", cfg.Trials)
	}
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("fig10 scheme invalid")
	}
	key, err := dataauth.NewKey()
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Config: cfg}
	for exp := cfg.MinExp; exp <= cfg.MaxExp; exp++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		size := 1 << exp
		msg := make([]byte, size)
		if _, err := rand.Read(msg); err != nil {
			return nil, fmt.Errorf("fig10 message: %w", err)
		}
		var encTotal, decTotal time.Duration
		for trial := 0; trial < cfg.Trials; trial++ {
			encStart := time.Now()
			sealed, err := dataauth.Encrypt(key, msg, cfg.Scheme)
			if err != nil {
				return nil, fmt.Errorf("fig10 encrypt %d bytes: %w", size, err)
			}
			encTotal += time.Since(encStart)

			decStart := time.Now()
			if _, err := dataauth.Decrypt(key, sealed); err != nil {
				return nil, fmt.Errorf("fig10 decrypt %d bytes: %w", size, err)
			}
			decTotal += time.Since(decStart)
		}
		encMean := encTotal / time.Duration(cfg.Trials)
		decMean := decTotal / time.Duration(cfg.Trials)
		throughput := 0.0
		if encMean > 0 {
			throughput = float64(size) / (1 << 20) / encMean.Seconds()
		}
		res.Rows = append(res.Rows, Fig10Row{
			Bytes:         size,
			EncryptMean:   encMean,
			DecryptMean:   decMean,
			ThroughputMBs: throughput,
		})
	}
	return res, nil
}

// Table builds the figure.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig 10 — AES (%v) running time vs message length (%d trials)",
			r.Config.Scheme, r.Config.Trials),
		Header: []string{"bytes", "encrypt_s", "decrypt_s", "throughput_MiB_s"},
	}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Bytes),
			fmt.Sprintf("%.6f", row.EncryptMean.Seconds()),
			fmt.Sprintf("%.6f", row.DecryptMean.Seconds()),
			fmt.Sprintf("%.1f", row.ThroughputMBs),
		)
	}
	return t
}
