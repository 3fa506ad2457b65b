// Package loadgen is an open-loop, fixed-rate load generator for
// latency measurement.
//
// The distinction it exists to enforce is open- versus closed-loop
// arrival. A closed-loop generator (issue, wait for completion, issue
// the next) lets a slow system throttle its own load: every stall
// delays all subsequent arrivals, so the recorded latencies describe a
// workload that conveniently backed off exactly when the system
// struggled. That is the coordinated-omission error — the worst
// samples are the ones the generator never took. An open-loop
// generator fixes the arrival timeline up front: operation i is due at
// start + i/rate regardless of how its predecessors fared, and its
// latency is measured from that *scheduled* instant. A send that fires
// late because the system (or the generator's own worker pool) was
// saturated is never skipped and never silently re-timed — the queueing
// delay it suffered is exactly what the percentiles must contain.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/b-iot/biot/internal/clock"
)

// Op executes one generated operation. It receives the operation index
// and the instant the operation was *scheduled* to fire (which is in
// the past by the generator's lateness when the timeline slips). A
// non-nil error marks the sample failed; failed samples keep their
// timing and carry the error in Sample.Err.
type Op func(i int, scheduled time.Time) error

// Config parameterizes one fixed-rate run.
type Config struct {
	// Rate is the offered load in operations per second. Required > 0.
	Rate float64
	// Count is the total number of operations to issue. Required > 0.
	Count int
	// MaxInFlight bounds concurrently executing operations (and thus
	// goroutines). When the bound is hit the dispatcher blocks, the
	// timeline slips, and the lateness is charged to the affected
	// samples — honest accounting, not omission. Zero selects 512.
	MaxInFlight int
	// Clock is the time source; nil selects the real clock. A virtual
	// clock makes scheduling deterministic for tests (Sleep advances it).
	Clock clock.Clock
}

func (c Config) withDefaults() (Config, error) {
	if c.Rate <= 0 {
		return c, fmt.Errorf("loadgen: rate must be positive, got %v", c.Rate)
	}
	if c.Count <= 0 {
		return c, fmt.Errorf("loadgen: count must be positive, got %d", c.Count)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 512
	}
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	return c, nil
}

// Sample records one operation's timing.
type Sample struct {
	// Scheduled is the instant the fixed-rate timeline assigned.
	Scheduled time.Time
	// Lateness is how far behind schedule the operation actually fired
	// (generator slip: worker-pool saturation or dispatcher overrun).
	Lateness time.Duration
	// Latency is completion minus Scheduled — the open-loop latency a
	// client submitting on its own timer would observe.
	Latency time.Duration
	// Service is completion minus actual start: the in-system time
	// alone. Latency - Service = Lateness.
	Service time.Duration
	// Err is the operation's failure, if any.
	Err error
}

// Result is one run's complete record.
type Result struct {
	// Samples holds every operation in issue order. Nothing is dropped:
	// len(Samples) == Config.Count always.
	Samples []Sample
	// Failed counts samples with a non-nil Err.
	Failed int
}

// ErrInterrupted reports a run cut short by context cancellation. The
// partial Result returned alongside it holds the samples issued so far.
var ErrInterrupted = errors.New("loadgen: run interrupted")

// Run issues cfg.Count operations on the fixed timeline start + i/rate
// and blocks until every issued operation completes. Operations overlap
// freely up to MaxInFlight; a late operation is issued anyway and its
// lateness charged to its latency. On context cancellation the
// remaining operations are abandoned (the only sanctioned omission —
// the caller asked for it) and Run returns ErrInterrupted with the
// samples issued so far.
func Run(ctx context.Context, cfg Config, op Op) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	period := time.Duration(float64(time.Second) / cfg.Rate)
	samples := make([]Sample, cfg.Count)
	slots := make(chan struct{}, cfg.MaxInFlight)
	// done is sized for every operation so a completing op never blocks
	// publishing, even if the run is abandoned mid-drain.
	done := make(chan int, cfg.Count)
	start := cfg.Clock.Now()

	issued, completed := 0, 0
	interrupted := false
dispatch:
	for ; issued < cfg.Count; issued++ {
		scheduled := start.Add(time.Duration(float64(issued) * float64(period)))
		if wait := scheduled.Sub(cfg.Clock.Now()); wait > 0 {
			cfg.Clock.Sleep(wait)
		}
		// Acquire an in-flight slot, draining completions meanwhile so a
		// saturated pool backpressures the dispatcher (charged as
		// lateness) instead of leaking goroutines.
		for {
			select {
			case slots <- struct{}{}:
			case <-done:
				completed++
				continue
			case <-ctx.Done():
				interrupted = true
				break dispatch
			}
			break
		}
		i := issued
		go func() {
			fired := cfg.Clock.Now()
			err := op(i, scheduled)
			end := cfg.Clock.Now()
			samples[i] = Sample{
				Scheduled: scheduled,
				Lateness:  fired.Sub(scheduled),
				Latency:   end.Sub(scheduled),
				Service:   end.Sub(fired),
				Err:       err,
			}
			<-slots
			done <- i
		}()
	}
	for completed < issued {
		select {
		case <-done:
			completed++
		case <-ctx.Done():
			// Give in-flight ops a bounded grace period; their samples
			// are already being written into pre-assigned slots.
			interrupted = true
			select {
			case <-done:
				completed++
			case <-time.After(time.Second):
				completed = issued // abandon stragglers
			}
		}
	}

	res := Result{Samples: samples[:issued]}
	for _, s := range res.Samples {
		if s.Err != nil {
			res.Failed++
		}
	}
	if interrupted {
		return res, ErrInterrupted
	}
	return res, nil
}
