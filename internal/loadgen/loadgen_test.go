package loadgen

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunIssuesEveryOperation(t *testing.T) {
	var calls atomic.Int64
	res, err := Run(context.Background(), Config{Rate: 5000, Count: 200}, func(i int, _ time.Time) error {
		calls.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 200 {
		t.Fatalf("op called %d times, want 200", calls.Load())
	}
	if len(res.Samples) != 200 {
		t.Fatalf("len(Samples) = %d, want 200", len(res.Samples))
	}
	if res.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", res.Failed)
	}
}

// TestRunScheduleIsFixedRate pins the open-loop property: scheduled
// instants follow start + i/rate exactly, independent of op duration.
func TestRunScheduleIsFixedRate(t *testing.T) {
	res, err := Run(context.Background(), Config{Rate: 10000, Count: 50}, func(int, time.Time) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	period := time.Duration(float64(time.Second) / 10000)
	base := res.Samples[0].Scheduled
	for i, s := range res.Samples {
		want := base.Add(time.Duration(i) * period)
		if got := s.Scheduled; got.Sub(want) > time.Microsecond || want.Sub(got) > time.Microsecond {
			t.Fatalf("sample %d scheduled %v, want %v", i, got, want)
		}
	}
}

// TestRunLateSendsAreChargedNotSkipped is the coordinated-omission
// guard: ops that fire behind schedule (slow op + MaxInFlight 1 stalls
// the timeline) must still all run, and the slip must appear in their
// open-loop latency as lateness rather than being re-timed away.
func TestRunLateSendsAreChargedNotSkipped(t *testing.T) {
	const stall = 20 * time.Millisecond
	var calls atomic.Int64
	res, err := Run(context.Background(), Config{Rate: 1000, Count: 8, MaxInFlight: 1},
		func(i int, _ time.Time) error {
			calls.Add(1)
			if i == 0 {
				time.Sleep(stall)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 8 {
		t.Fatalf("late ops were skipped: %d calls, want 8", calls.Load())
	}
	// Op 1 was due 1ms after op 0 but could not fire until op 0's ~20ms
	// stall released the only slot: its lateness must carry the wait.
	s := res.Samples[1]
	if s.Lateness < stall/2 {
		t.Fatalf("sample 1 lateness %v does not reflect the %v stall", s.Lateness, stall)
	}
	if s.Latency < s.Lateness {
		t.Fatalf("open-loop latency %v < lateness %v: slip was re-timed away", s.Latency, s.Lateness)
	}
	if got := s.Latency - s.Service; got < s.Lateness-time.Millisecond {
		t.Fatalf("Latency-Service = %v, want ~Lateness %v", got, s.Lateness)
	}
}

func TestRunRecordsFailures(t *testing.T) {
	wantErr := errors.New("rejected")
	res, err := Run(context.Background(), Config{Rate: 5000, Count: 40}, func(i int, _ time.Time) error {
		if i%4 == 0 {
			return wantErr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 10 {
		t.Fatalf("Failed = %d, want 10", res.Failed)
	}
	if !errors.Is(res.Samples[0].Err, wantErr) {
		t.Fatalf("sample 0 error = %v", res.Samples[0].Err)
	}
}

func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	var once sync.Once
	res, err := Run(ctx, Config{Rate: 100, Count: 1000}, func(i int, _ time.Time) error {
		calls.Add(1)
		if i >= 3 {
			once.Do(cancel)
		}
		return nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if n := len(res.Samples); n >= 1000 || n < 4 {
		t.Fatalf("interrupted run kept %d samples", n)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{Rate: 0, Count: 1}, nil); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(context.Background(), Config{Rate: 1, Count: 0}, nil); err == nil {
		t.Fatal("zero count accepted")
	}
}
