// Command perfbench is cmfuzz's benchmark. It drives one workload from
// one process through public entry points only — parallel.Run, the
// dist.Coordinator Start/Advance/Finish calls, and fleet.Manager
// Submit/Step — checks every run's artifacts, and prints one JSON
// object as its last line of output:
//
//	go build -o perfbench . && ./perfbench --workload campaign-dns --seed 11 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it runs the workload traced and reports
// the per-layer metrics. Run it from the repository root (run.sh builds
// and starts it there); its working files go under .bench_build/.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every campaign's virtual hours (1 = the
	// workloads as defined; the self-test runs them shorter).
	scale float64
	// workDir holds working files: fleet state, artifact trees and the
	// cross-run digest store.
	workDir string
	// child runs a single rep for a parent benchmark process.
	child bool
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload: campaign-dns, dist-dtls or fleet-dtls")
	fs.Int64Var(&c.seed, "seed", 11, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 20, "how long to measure, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced workload and reports per-layer metrics")
	fs.Float64Var(&c.scale, "scale", 1, "multiplier on every campaign's virtual hours")
	fs.StringVar(&c.workDir, "work", filepath.Join(".bench_build", "perfbench"), "directory for working files")
	fs.BoolVar(&c.child, childFlag[2:], false, "run one untraced rep at --seed and print it as JSON (the benchmark runs each rep this way)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("unknown workload %q", c.workload)
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if c.seconds <= 0 || c.scale <= 0 {
		return c, fmt.Errorf("--seconds and --scale must be positive")
	}
	c.trace = trace == 1
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b, err := newBench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer b.close()
	if cfg.child {
		if err := childMain(b, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if b.store, err = openDigestStore(cfg.workDir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.printEnv()
	var out report
	if cfg.trace {
		out = b.traced()
	} else {
		out = b.endToEnd()
	}
	raw, err := json.Marshal(out.json())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	return 0
}

// printEnv records the environment the figures were taken in.
func (b *bench) printEnv() {
	fmt.Fprintf(b.out, "# workload=%s seed=%d seconds=%g trace=%t scale=%g\n",
		b.w.name, b.cfg.seed, b.cfg.seconds, b.cfg.trace, b.cfg.scale)
	fmt.Fprintf(b.out, "# nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// cpuModel reads the processor name from /proc/cpuinfo, if present.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// A report is one run's result line.
type report struct {
	attempted int
	failed    int
	metrics   []metric
}

type metric struct {
	name  string
	value float64
}

func (r report) json() map[string]any {
	m := map[string]any{}
	for _, x := range r.metrics {
		m[x.name] = map[string]any{"value": x.value, "unit": units[x.name]}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   m,
	}
}

// since is a helper for elapsed seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
