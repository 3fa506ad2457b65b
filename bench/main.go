// Command bench is the repository's end-to-end benchmark: device submit
// → admitted → durable → relayed → confirmed, on real FullNode gateways
// and relays and LightNode devices in one process, measured only from
// outside the program. README.md describes the workloads, the metrics
// and how to read them.
//
//	bash bench/run.sh --workload edge-durable --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                 # all four workloads, then their traced runs
//	bash bench/run.sh -repeat 5 -out bench/out/a
//	bash bench/run.sh -compare bench/out/a bench/out/b
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	schemaVersion = 1
	defaultSeed   = 1
	// heldOutSeed is the second seed a later change must also hold on
	// when it claims a gain (README.md, calibration record).
	heldOutSeed = 20190707
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four, then their traced runs)")
		seed      = flag.Int64("seed", defaultSeed, "workload seed: keys, payloads, device order, tip selection")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics, tracing off")
		out       = flag.String("out", filepath.Join("bench", "out"), "directory for the run envelopes and traces (\"\" = none)")
		repeat    = flag.Int("repeat", 1, "run everything this many times into <out>/run-<i>")
		compare   = flag.Bool("compare", false, "compare two directories of runs: -compare A B")
		smoke     = flag.Bool("smoke", false, "tiny phases through every code path; no sample-count gate")
		specOnly  = flag.Bool("print-spec", false, "print BENCHMARK.json from the tables in spec.go and exit")
		benchJSON = flag.String("benchmark-json", "BENCHMARK.json", "where -compare reads the bounds from")
	)
	flag.Parse()
	if *specOnly {
		exitOn(printSpec())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("usage: -compare A B (two directories of runs)"))
		}
		exitOn(compareRuns(flag.Arg(0), flag.Arg(1), *benchJSON))
		return
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	base := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	if base.smoke && *seconds == runSeconds {
		base.seconds = 1
	}

	ok := true
	for i := 0; i < *repeat; i++ {
		dir := *out
		if *repeat > 1 && dir != "" {
			dir = filepath.Join(dir, fmt.Sprintf("run-%d", i+1))
		}
		base.outDir = dir
		if *workload != "" {
			cfg := base
			cfg.workload, cfg.trace = *workload, *trace != 0
			ok = runAndReport(ctx, cfg, true) && ok
			continue
		}
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				cfg := base
				cfg.workload, cfg.trace = w.Name, traced
				if traced && !cfg.smoke {
					cfg.seconds = base.seconds * 3 / 4 // the traced runs are the first to shorten
				}
				ok = runAndReport(ctx, cfg, false) && ok
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// envelope is the one shape every run is written in.
type envelope struct {
	Schema     int                 `json:"schema"`
	Workload   string              `json:"workload"`
	Trace      bool                `json:"trace"`
	Correct    bool                `json:"correct"`
	Void       []string            `json:"void,omitempty"`
	Warnings   []string            `json:"warnings,omitempty"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Metrics    map[string]measured `json:"metrics"`
	Commit     string              `json:"git_commit"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"nproc"`
	CPUModel   string              `json:"cpu_model"`
	Seed       int64               `json:"seed"`
	HeldOut    int64               `json:"held_out_seed"`
	Seconds    float64             `json:"seconds"`
	Smoke      bool                `json:"smoke,omitempty"`
	Models     map[string]string   `json:"models"`
	Rates      map[string]float64  `json:"rates"`
	PhasesS    map[string]float64  `json:"phases_s"`
	Counts     map[string]int      `json:"sample_counts"`
	SetupsS    []float64           `json:"setups_s"`
	StartedAt  string              `json:"started_at"`
	WallS      float64             `json:"wall_s"`
}

func newEnvelope(res *runResult, started time.Time) envelope {
	e := envelope{
		Schema:     schemaVersion,
		Workload:   res.cfg.workload,
		Trace:      res.cfg.trace,
		Correct:    len(res.void) == 0,
		Void:       res.void,
		Warnings:   res.warn,
		Attempted:  res.attempted,
		Failed:     res.failed,
		Metrics:    res.metrics,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       res.cfg.seed,
		HeldOut:    heldOutSeed,
		Seconds:    res.cfg.seconds,
		Smoke:      res.cfg.smoke,
		Models: map[string]string{
			"fsync": fmt.Sprintf("model disk, %v per Sync, one write head; a reboot keeps only synced data", fsyncDelay),
			"link":  fmt.Sprintf("loopback gossip.ListenTCP + %v one way per message, FIFO per peer", linkDelay),
			"pow":   fmt.Sprintf("difficulty %d (static; full-path: additive credit policy, initial %d)", powDifficulty, powDifficulty),
			"fleet": fmt.Sprintf("%d seeded devices, %d-byte readings, each device strictly sequential", deviceCount, readingBytes),
		},
		Rates: map[string]float64{
			"open_loop_tps":   res.plan.openRate,
			"closed_sessions": float64(res.plan.sessions),
			"preload_tx":      float64(res.plan.preload),
		},
		PhasesS:   map[string]float64{},
		Counts:    res.counts,
		SetupsS:   res.setups,
		StartedAt: started.UTC().Format(time.RFC3339),
		WallS:     time.Since(started).Seconds(),
	}
	for name, d := range res.phases {
		e.PhasesS[name] = d.Seconds()
	}
	return e
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// driverLine is the single JSON object the driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAndReport runs one workload once, prints its metrics, writes its
// envelope and — for a single-workload invocation — ends standard output
// with the driver's line. It reports whether the run was valid.
func runAndReport(ctx context.Context, cfg runConfig, single bool) bool {
	if cfg.outDir != "" {
		exitOn(os.MkdirAll(cfg.outDir, 0o755))
	}
	started := time.Now()
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return false
	}
	// A traced run reports the per-layer list, an untraced one the
	// end-to-end list; every name of the list is present.
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	reported := make(map[string]measured, len(list))
	for _, spec := range list {
		reported[spec.Name] = res.metrics[spec.Name]
	}
	res.metrics = reported
	env := newEnvelope(res, started)

	for _, why := range res.warn {
		fmt.Printf("%s WARN %s\n", cfg.workload, why)
	}
	if !env.Correct {
		// A void run says why and reports no metrics.
		for _, why := range res.void {
			fmt.Printf("%s VOID %s\n", cfg.workload, why)
		}
		env.Metrics = map[string]measured{}
	} else {
		for _, spec := range list {
			m := reported[spec.Name]
			fmt.Printf("%s %s %.6g %s %d\n", cfg.workload, spec.Name, m.Value, m.Unit, m.N)
		}
	}
	if cfg.outDir != "" {
		name := cfg.workload
		if cfg.trace {
			name += ".trace"
		}
		data, err := json.MarshalIndent(env, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(filepath.Join(cfg.outDir, name+".json"), append(data, '\n'), 0o644))
	}
	if single {
		line := driverLine{Correct: env.Correct, Attempted: env.Attempted, Failed: env.Failed, Metrics: map[string]driverValue{}}
		for name, m := range env.Metrics {
			line.Metrics[name] = driverValue{Value: m.Value, Unit: m.Unit}
		}
		if line.Attempted < 1 {
			line.Attempted = 1
		}
		data, err := json.Marshal(line)
		exitOn(err)
		fmt.Println(string(data))
	}
	return env.Correct
}
