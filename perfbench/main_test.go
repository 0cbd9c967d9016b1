package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/subject"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run starts its reps as child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEveryMetricPrinted runs every workload briefly, untraced and
// traced, and checks that the result line names exactly the metrics
// BENCHMARK.json lists for that mode, with the same units.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}

	work := t.TempDir()
	for _, w := range want {
		for _, mode := range []struct {
			trace   string
			metrics []benchMetric
		}{{"0", f.EndToEnd}, {"1", f.PerLayer}} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.1", "--trace", mode.trace,
				"--scale", "0.02", "--work", work}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w, mode.trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s",
					w, mode.trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(mode.metrics) {
				t.Errorf("%s trace %s: printed %d metrics, BENCHMARK.json lists %d", w, mode.trace, len(res.Metrics), len(mode.metrics))
			}
			for _, m := range mode.metrics {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s not printed", w, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s unit %q, BENCHMARK.json says %q", w, mode.trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// stubInstance is a subject.Instance whose Message panics on "boom".
type stubInstance struct{}

func (stubInstance) Start(map[string]string, *coverage.Trace) error { return nil }
func (stubInstance) SetTrace(*coverage.Trace)                       {}
func (stubInstance) NewSession()                                    {}
func (stubInstance) Close()                                         {}
func (stubInstance) Message(p []byte) [][]byte {
	if string(p) == "boom" {
		bugs.Trigger("stub", bugs.SEGV, "stub_message", "boom")
	}
	return nil
}

func TestCountingInstanceAllocFreeAndTransparent(t *testing.T) {
	c := &counters{}
	var inst subject.Instance = &countingInstance{Instance: stubInstance{}, c: c}
	msg := []byte("ok")
	if allocs := testing.AllocsPerRun(1000, func() { inst.Message(msg) }); allocs != 0 {
		t.Errorf("Message allocates %.1f times per call", allocs)
	}
	crash := bugs.Capture(func() { inst.Message([]byte("boom")) })
	if crash == nil {
		t.Fatal("a panicking Message did not propagate through the wrapper")
	}
	if got := c.snapshot(); got.crashes != 1 || got.msgs != 1001+1 {
		t.Errorf("counted %d crashes in %d messages, want 1 in 1002", got.crashes, got.msgs)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if p, v := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail of 1..100 = p%g %g, want p90 90", p, v)
	}
	if p, v := tail(xs[:5]); p != 50 || v != 3 {
		t.Errorf("tail of 1..5 = p%g %g, want the median, p50 3", p, v)
	}
}

func TestMsgSampleSessions(t *testing.T) {
	s := newMsgSample(1, 3, 16)
	s.offer(1, 1, []byte("a"))
	s.offer(2, 1, []byte("b"))
	s.offer(3, 2, []byte("c"))
	s.offer(4, 2, []byte("full")) // over the message cap
	got := s.sessions()
	if len(got) != 2 || len(got[0]) != 2 || string(got[1][0]) != "c" {
		t.Errorf("sessions = %q", got)
	}
}
