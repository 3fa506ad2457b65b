package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// A verdict on one metric × workload between two sets of runs.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // a side's own spread is wider than the bound
)

// side is one set of runs' values of one metric on one workload.
type side struct {
	values         []float64
	median, q1, q3 float64
}

func newSide(values []float64) side {
	s := side{values: values, median: median(values)}
	s.q1, s.q3 = quartiles(values)
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 { return safeDiv(s.q3-s.q1, s.median) }

// judge compares b against a for a metric with the given direction and
// bound (a share of a's median). Moves inside the bound are "same";
// when either side's own spread exceeds the bound nothing can be said.
func judge(a, b side, better string, bound float64) (delta float64, verdict string) {
	delta = safeDiv(b.median-a.median, a.median)
	if a.spread() > bound || b.spread() > bound {
		return delta, verdictUnresolved
	}
	worse := delta
	if better == higher {
		worse = -delta
	}
	switch {
	case worse > bound:
		return delta, verdictWorse
	case worse < -bound:
		return delta, verdictBetter
	default:
		return delta, verdictSame
	}
}

// loadRuns reads every untraced envelope under dir (directly or in
// run-<i> subdirectories) into workload → metric → values. Void runs
// carry no metrics and are counted separately.
func loadRuns(dir string) (values map[string]map[string][]float64, void int, err error) {
	values = make(map[string]map[string][]float64)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasPrefix(d.Name(), "trace-") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if env.Trace || env.Workload == "" {
			return nil
		}
		if !env.Correct {
			void++
			return nil
		}
		byMetric := values[env.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			values[env.Workload] = byMetric
		}
		for name, m := range env.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
		return nil
	})
	return values, void, err
}

// compareRuns prints, per end-to-end metric × workload, each side's
// median and quartiles, the move against the bound in BENCHMARK.json,
// and a verdict. It fails when any pairing is worse.
func compareRuns(dirA, dirB, benchmarkJSON string) error {
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return fmt.Errorf("bounds: %w", err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	a, voidA, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, voidB, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	if voidA+voidB > 0 {
		fmt.Printf("void runs left out: %d in A, %d in B\n", voidA, voidB)
	}
	fmt.Printf("%-16s %-16s %4s %12s %22s %12s %22s %8s %6s  %s\n",
		"workload", "metric", "n", "A median", "A quartiles", "B median", "B quartiles", "delta", "bound", "verdict")
	tally := map[string]int{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-16s %-16s missing (A has %d runs, B has %d)\n", w.Name, m.Name, len(va), len(vb))
				tally[verdictUnresolved]++
				continue
			}
			sa, sb := newSide(va), newSide(vb)
			delta, verdict := judge(sa, sb, m.Better, m.Bound)
			tally[verdict]++
			fmt.Printf("%-16s %-16s %2d/%-2d %12.5g %10.5g..%-10.5g %12.5g %10.5g..%-10.5g %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, len(va), len(vb), sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, delta*100, m.Bound*100, verdict)
		}
	}
	fmt.Printf("same %d, better %d, worse %d, unresolved %d\n",
		tally[verdictSame], tally[verdictBetter], tally[verdictWorse], tally[verdictUnresolved])
	if tally[verdictWorse] > 0 {
		return fmt.Errorf("%d metric × workload pairings are worse than the bound allows", tally[verdictWorse])
	}
	return nil
}
