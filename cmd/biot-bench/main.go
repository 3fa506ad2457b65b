// Command biot-bench regenerates every table and figure of the paper's
// evaluation (§VI) plus the measured security matrix. See DESIGN.md §3
// for the experiment index and EXPERIMENTS.md for paper-vs-measured
// numbers. Performance is measured end to end by the bench/ module
// (BENCHMARK.json), not here.
//
// Usage:
//
//	biot-bench -fig all                # every figure, in table order (default)
//	biot-bench -fig 7                  # one figure
//	biot-bench -fig 7 -quick           # CI-scale variant
//	biot-bench -fig 9 -csv out.csv     # also write CSV
//
// `biot-bench -h` lists the figure names; the figures table below is the
// one place they are defined.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/b-iot/biot/internal/experiments"
)

// result is what every experiment harness returns: one figure's table.
type result interface{ Table() *experiments.Table }

// figure is one table or figure of the evaluation. quick selects the
// CI-scale parameters where the figure has any.
type figure struct {
	name string
	run  func(ctx context.Context, quick bool) (result, error)
}

// figures is every figure biot-bench regenerates, in the order -fig all
// runs them.
var figures = []figure{
	// Fig 7: PoW time vs difficulty.
	{"7", func(ctx context.Context, quick bool) (result, error) {
		cfg := experiments.DefaultFig7Config()
		if quick {
			cfg = experiments.QuickFig7Config()
		}
		return experiments.RunFig7(ctx, cfg)
	}},
	// Fig 8: credit timeline under one attack (a) or two (b).
	{"8a", func(context.Context, bool) (result, error) {
		return experiments.RunFig8(experiments.DefaultFig8Config())
	}},
	{"8b", func(context.Context, bool) (result, error) {
		return experiments.RunFig8(experiments.Fig8bConfig())
	}},
	// Fig 9: the four control experiments.
	{"9", func(context.Context, bool) (result, error) {
		return experiments.RunFig9(experiments.DefaultFig9Config())
	}},
	// Fig 10: AES time vs message length.
	{"10", func(ctx context.Context, quick bool) (result, error) {
		cfg := experiments.DefaultFig10Config()
		if quick {
			cfg.MaxExp = 16
			cfg.Trials = 3
		}
		return experiments.RunFig10(ctx, cfg)
	}},
	// §VI-C threat scenarios, measured.
	{"security", func(ctx context.Context, _ bool) (result, error) {
		return experiments.RunSecurity(ctx, experiments.DefaultSecurityConfig())
	}},
	// DAG vs the §II single-chain baseline.
	{"throughput", func(ctx context.Context, quick bool) (result, error) {
		cfg := experiments.DefaultThroughputConfig()
		if quick {
			cfg = experiments.QuickThroughputConfig()
		}
		return experiments.RunThroughput(ctx, cfg)
	}},
	// Fig 4 key-distribution protocol.
	{"keydist", func(context.Context, bool) (result, error) {
		return experiments.RunKeyDist(experiments.DefaultKeyDistConfig())
	}},
	// Devices vs admitted throughput and acceptance latency.
	{"scale", func(ctx context.Context, quick bool) (result, error) {
		cfg := experiments.DefaultScalabilityConfig()
		if quick {
			cfg.DeviceCounts = []int{1, 2, 4}
			cfg.TxPerDevice = 5
			cfg.Difficulty = 8
		}
		return experiments.RunScalability(ctx, cfg)
	}},
	// Lazy-tip attack: uniform vs weighted-walk tip selection.
	{"lazyresist", func(context.Context, bool) (result, error) {
		return experiments.RunLazyResist(experiments.DefaultLazyResistConfig())
	}},
	// λ2 punishment-strictness sweep.
	{"lambda", func(context.Context, bool) (result, error) {
		return experiments.RunLambdaSweep(experiments.DefaultLambdaSweepConfig())
	}},
}

// figureNames lists the figure names in table order, comma-separated.
func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, ", ")
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+figureNames()+", all")
	quick := flag.Bool("quick", false, "CI-scale parameters (smaller sweeps, no device emulation)")
	csvPath := flag.String("csv", "", "also write the result as CSV to this file (single figure only)")
	flag.Parse()

	if err := run(*fig, *quick, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "biot-bench:", err)
		os.Exit(1)
	}
}

// lookup returns the named figure.
func lookup(name string) (figure, error) {
	for _, f := range figures {
		if f.name == strings.ToLower(name) {
			return f, nil
		}
	}
	return figure{}, fmt.Errorf("unknown figure %q (want one of %s, all)", name, figureNames())
}

func run(fig string, quick bool, csvPath string) error {
	figs := figures
	if fig != "all" {
		f, err := lookup(fig)
		if err != nil {
			return err
		}
		figs = []figure{f}
	} else if csvPath != "" {
		return fmt.Errorf("-csv requires a single figure")
	}
	for i, f := range figs {
		if i > 0 {
			fmt.Println()
		}
		res, err := f.run(context.Background(), quick)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		tab := res.Table()
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		if csvPath == "" {
			continue
		}
		out, err := os.Create(csvPath)
		if err != nil {
			return fmt.Errorf("create csv: %w", err)
		}
		if err := tab.CSV(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "csv written to %s\n", csvPath)
	}
	return nil
}
