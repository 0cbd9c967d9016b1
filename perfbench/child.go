package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// Each end-to-end rep runs in a child process of its own: the rep
// starts from a fresh heap, and the child's peak resident set, which
// the kernel reports when it exits, belongs to that rep alone.

// childFlag makes the benchmark binary run one rep and print it as
// JSON instead of running a whole workload.
const childFlag = "--child-rep"

// repWire is a repResult on the pipe between child and parent.
type repWire struct {
	Seed       int64             `json:"seed"`
	WallNs     int64             `json:"wall_ns"`
	CPUNs      int64             `json:"cpu_ns"`
	Mallocs    uint64            `json:"mallocs"`
	Bytes      uint64            `json:"bytes"`
	Execs      int               `json:"execs"`
	Branches   int               `json:"branches"`
	Bugs       int               `json:"bugs"`
	CrashSteps int               `json:"crash_steps"`
	Rounds     []float64         `json:"rounds"`
	Digests    map[string]string `json:"digests"`
	Failures   []string          `json:"failures"`
	Ops        int               `json:"ops"`
}

func toWire(r *repResult) repWire {
	return repWire{
		Seed: r.seed, WallNs: int64(r.use.wall), CPUNs: int64(r.use.cpu), Mallocs: r.use.mallocs, Bytes: r.use.bytes,
		Execs: r.execs, Branches: r.branches, Bugs: r.bugs, CrashSteps: r.crashSteps,
		Rounds: r.rounds, Digests: r.digests, Failures: r.failures, Ops: r.ops,
	}
}

func fromWire(w repWire) *repResult {
	return &repResult{
		seed:  w.Seed,
		use:   usage{wall: time.Duration(w.WallNs), cpu: time.Duration(w.CPUNs), mallocs: w.Mallocs, bytes: w.Bytes},
		execs: w.Execs, branches: w.Branches, bugs: w.Bugs, crashSteps: w.CrashSteps,
		rounds: w.Rounds, digests: w.Digests, failures: w.Failures, ops: w.Ops,
	}
}

// childMain runs one untraced rep and writes it to stdout.
func childMain(b *bench, stdout io.Writer) error {
	r, err := b.w.rep(b, b.cfg.seed, nil)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(toWire(r))
}

// childRep runs the rep at seed in a child process and returns it with
// the child's peak resident set in MiB.
func (b *bench) childRep(seed int64) (*repResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, childFlag,
		"--workload", b.w.name,
		"--seed", strconv.FormatInt(seed, 10),
		"--scale", strconv.FormatFloat(b.scale, 'g', -1, 64),
		"--work", b.work)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child rep: %w", err)
	}
	var w repWire
	if err := json.Unmarshal(out.Bytes(), &w); err != nil {
		return nil, 0, fmt.Errorf("child rep output: %w", err)
	}
	peak := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return fromWire(w), peak, nil
}
