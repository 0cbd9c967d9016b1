package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// units names every metric the benchmark prints and its unit; the
// self-test checks it against BENCHMARK.json.
var units = map[string]string{
	// End to end, measured with tracing off.
	"execs_per_s":          "1/s",
	"wall_s":               "s",
	"setup_s":              "s",
	"cpu_us_per_exec":      "us",
	"allocs_per_exec":      "count",
	"alloc_bytes_per_exec": "B",
	"peak_rss_mb":          "MiB",
	"branches":             "count",
	"round_ms_p50":         "ms",
	"round_ms_tail":        "ms",

	// Per layer, from the traced run.
	"core.plan_ms":              "ms",
	"core.probes":               "count",
	"core.probe_start_us":       "us",
	"core.allocate_ms":          "ms",
	"parallel.boot_ms":          "ms",
	"parallel.sync_ms":          "ms",
	"parallel.syncs":            "count",
	"parallel.mutate_ms":        "ms",
	"parallel.config_mutations": "count",
	"parallel.crash_steps":      "count",
	"parallel.other_share":      "ratio",
	"protocols.execs":           "count",
	"protocols.reexec_ratio":    "ratio",
	"protocols.msgs_per_exec":   "count",
	"protocols.message_ns":      "ns",
	"protocols.busy_share":      "ratio",
	"protocols.starts":          "count",
	"protocols.start_us":        "us",
	"protocols.crashes":         "count",
	"netsim.send_ns":            "ns",
	"netsim.allocs_per_send":    "count",
	"fuzz.step_ns":              "ns",
	"fuzz.allocs_per_step":      "count",
	"dist.leases":               "count",
	"dist.records_per_lease":    "count",
	"dist.lease_ms_p50":         "ms",
	"dist.lease_ms_tail":        "ms",
	"dist.lease_bytes_per_exec": "B",
	"dist.encode_ms":            "ms",
	"dist.decode_ms":            "ms",
	"dist.worker_busy_share":    "ratio",
	"dist.reassignments":        "count",
	"dist.worker_deaths":        "count",
	"fleet.rounds":              "count",
	"fleet.cold_handoffs":       "count",
	"fleet.warm_share":          "ratio",
	"fleet.checkpoint_bytes":    "B",
	"fleet.lease_ms_p50":        "ms",
	"failed_share":              "ratio",
	"bugs_unique":               "count",
	"trace.overhead_ratio":      "ratio",
	"reconcile.remainder_share": "ratio",
}

// Run shape. Every rep of a run fuzzes its own seed, derived from
// --seed, so a run's medians summarize several campaigns rather than
// one seed's luck. The deterministic figure, branches, averages the
// first detReps reps, which every run completes.
const (
	seedStride = 1000
	detReps    = 5
	minReps    = detReps
	maxReps    = 200
	// Before each rep, set-up trials run for setupBudget of wall time
	// (at least minSetups of them), spreading the samples over the run
	// without crowding out the reps.
	setupBudget    = 150 * time.Millisecond
	minSetups      = 3
	maxSetupTrials = 400
)

func repSeed(base int64, i int) int64 { return base + int64(i)*seedStride }

// A bench is one benchmark process.
type bench struct {
	cfg   config
	w     *workload
	out   io.Writer
	procs int
	scale float64
	work  string
	store *digestStore
	refs  map[string]string // fleet reference digests by campaign and seed

	attempted int
	failures  []string
}

func newBench(cfg config, out io.Writer) (*bench, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	// Probe workers and GOMAXPROCS stay within the machine's CPUs.
	procs := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); procs > n {
		runtime.GOMAXPROCS(n)
		procs = n
	}
	return &bench{
		cfg: cfg, w: workloads[cfg.workload], out: out, procs: procs, scale: cfg.scale,
		work: work, refs: map[string]string{},
	}, nil
}

func (b *bench) close() { os.RemoveAll(b.work) }

func (b *bench) tempDir(prefix string) (string, error) { return os.MkdirTemp(b.work, prefix+"-") }

// op records one attempted operation and whether it failed.
func (b *bench) op(failures ...string) {
	b.attempted++
	if len(failures) > 0 {
		b.failures = append(b.failures, strings.Join(failures, "; "))
	}
}

func (b *bench) addRep(r *repResult) {
	b.attempted += r.ops
	b.failures = append(b.failures, r.failures...)
}

func (b *bench) report(ms []metric) report {
	for _, f := range b.failures {
		fmt.Fprintf(b.out, "# FAILED: %s\n", f)
	}
	for i := range ms {
		if math.IsNaN(ms[i].value) || math.IsInf(ms[i].value, 0) {
			ms[i].value = 0
		}
	}
	failed := len(b.failures)
	if failed > b.attempted {
		b.attempted = failed
	}
	return report{attempted: b.attempted, failed: failed, metrics: ms}
}

// setupTrials times the workload's set-up at least n times and for at
// least budget of wall time (teardown included), and returns the
// samples in seconds.
func (b *bench) setupTrials(n int, budget time.Duration) []float64 {
	var xs []float64
	start := time.Now()
	for i := 0; i < n || time.Since(start) < budget; i++ {
		d, err := b.w.setup(b, b.cfg.seed)
		if err != nil {
			b.op("setup: " + err.Error())
			continue
		}
		b.op()
		xs = append(xs, d.Seconds())
	}
	return xs
}

// runRep runs one rep after a collection, so no rep pays for the
// previous one's garbage.
func (b *bench) runRep(seed int64, k *kit) *repResult {
	runtime.GC()
	r, err := b.w.rep(b, seed, k)
	if err != nil {
		b.op(fmt.Sprintf("rep at seed %d: %v", seed, err))
		return nil
	}
	b.addRep(r)
	return r
}

// checkDigests compares a rep's artifact digests with the digest
// store, which holds earlier processes' runs of this binary. A rep
// with a failure is skipped: its artifacts need not reproduce.
func (b *bench) checkDigests(r *repResult) {
	if len(r.failures) > 0 {
		return
	}
	for id, d := range r.digests {
		ok, err := b.store.check(fmt.Sprintf("%s-%s-%d-h%g", b.w.name, id, r.seed, b.scale), d)
		switch {
		case err != nil:
			b.op("digest store: " + err.Error())
		case !ok:
			b.op(fmt.Sprintf("artifacts of %s at seed %d differ from an earlier run", id, r.seed))
		default:
			b.op()
		}
	}
}

// endToEnd is the --trace 0 run: reps in child processes until
// --seconds have passed, with set-up trials in between.
func (b *bench) endToEnd() report {
	b.setupTrials(1, 0) // warms caches; not a sample
	var setups, peaks []float64
	var reps []*repResult
	start := time.Now()
	for i := 0; i < maxReps && (i < minReps || since(start) < b.cfg.seconds); i++ {
		if len(setups) < maxSetupTrials {
			setups = append(setups, b.setupTrials(minSetups, setupBudget)...)
		}
		seed := repSeed(b.cfg.seed, i)
		runtime.GC()
		r, peak, err := b.childRep(seed)
		if err != nil {
			b.op(fmt.Sprintf("rep at seed %d: %v", seed, err))
			continue
		}
		b.addRep(r)
		reps = append(reps, r)
		if len(r.failures) == 0 {
			peaks = append(peaks, peak)
		}
		fmt.Fprintf(b.out, "# rep seed=%d wall_s=%.3f execs=%d cpu_s=%.3f allocs=%d peak_rss_mb=%.1f failures=%d\n",
			r.seed, r.use.wall.Seconds(), r.execs, r.use.cpu.Seconds(), r.use.mallocs, peak, len(r.failures))
	}

	var eps, wall, cpu, allocs, bytes, rounds, branches []float64
	for i, r := range reps {
		b.checkDigests(r)
		if len(r.failures) > 0 || r.execs == 0 {
			continue
		}
		rounds = append(rounds, r.rounds...)
		sec := r.use.wall.Seconds()
		n := float64(r.execs)
		eps = append(eps, n/sec)
		wall = append(wall, sec)
		cpu = append(cpu, float64(r.use.cpu.Microseconds())/n)
		allocs = append(allocs, float64(r.use.mallocs)/n)
		bytes = append(bytes, float64(r.use.bytes)/n)
		if i < detReps {
			branches = append(branches, float64(r.branches))
		}
	}
	// The cross-path check reruns the first seed whose rep succeeded; a
	// failed rep's artifacts need not match anything.
	for _, r := range reps {
		if len(r.failures) == 0 {
			b.op(b.w.check(b, r)...)
			break
		}
	}
	pct, tailMs := tail(rounds)
	fmt.Fprintf(b.out, "# reps=%d setup_trials=%d rounds=%d round_ms_tail=p%g\n", len(reps), len(setups), len(rounds), pct)
	return b.report([]metric{
		{"execs_per_s", median(eps)},
		{"wall_s", median(wall)},
		{"setup_s", median(setups)},
		{"cpu_us_per_exec", median(cpu)},
		{"allocs_per_exec", median(allocs)},
		{"alloc_bytes_per_exec", median(bytes)},
		{"peak_rss_mb", median(peaks)},
		{"branches", mean(branches)},
		{"round_ms_p50", median(rounds)},
		{"round_ms_tail", tailMs},
	})
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
