package dist_test

import (
	"bytes"
	"context"
	"flag"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// sessionCounter wraps a subject and counts the target sessions its
// instances open. With noState set, its instances refuse to capture
// their state, which forces every restore onto the replay path.
type sessionCounter struct {
	subject.Subject
	noState  bool
	sessions atomic.Int64
}

func (s *sessionCounter) NewInstance() subject.Instance {
	return &countedInstance{Instance: s.Subject.NewInstance(), sub: s}
}

type countedInstance struct {
	subject.Instance
	sub *sessionCounter
}

func (in *countedInstance) NewSession() {
	in.sub.sessions.Add(1)
	in.Instance.NewSession()
}

func (in *countedInstance) State() ([]byte, error) {
	if in.sub.noState {
		return nil, subject.ErrNoState
	}
	return subject.State(in.Instance)
}

func (in *countedInstance) SetState(state []byte) error { return subject.SetState(in.Instance, state) }

// addWorkersFor attaches n pipe workers that resolve every subject name
// to sub.
func addWorkersFor(t testing.TB, add func(net.Conn) error, n int, sub subject.Subject) func() {
	t.Helper()
	serveErr := make(chan error, n)
	for i := 0; i < n; i++ {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: "w", Resolve: func(string) (subject.Subject, error) { return sub, nil }})
		go func() { serveErr <- w.Serve(wConn) }()
		if err := add(cConn); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			if err := <-serveErr; err != nil {
				t.Error(err)
			}
		}
	}
}

// baselineTree runs opts in-process and returns its artifact tree.
func baselineTree(t *testing.T, sub subject.Subject, opts parallel.Options) map[string]string {
	t.Helper()
	rec := telemetry.New()
	opts.Telemetry = rec
	res, err := parallel.Run(context.Background(), sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "baseline")
	writeAll(t, dir, res, rec)
	return readTree(t, dir)
}

// checkpointAt runs opts distributed up to virtual time at and returns
// the checkpoint taken there, plus the campaign's mutation count so far.
func checkpointAt(t testing.TB, sub subject.Subject, opts parallel.Options, at float64) ([]byte, int) {
	t.Helper()
	ctx := context.Background()
	opts.Telemetry = telemetry.New()
	coord := dist.NewCoordinator(sub, opts, dist.Config{HeartbeatInterval: -1})
	wait := addWorkersFor(t, coord.AddConn, 2, sub)
	if err := coord.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Advance(ctx, at); err != nil {
		t.Fatal(err)
	}
	blob, err := coord.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	muts := coord.Recorder().Counters()[telemetry.CtrMutations]
	coord.Close()
	wait()
	return blob, muts
}

// resumeTree restores blob onto a fresh coordinator and workers, runs
// it to the horizon, and returns its artifact tree plus the number of
// target sessions the Restore call alone ran.
func resumeTree(t *testing.T, sub *sessionCounter, opts parallel.Options, blob []byte) (map[string]string, int64) {
	t.Helper()
	ctx := context.Background()
	coord := dist.NewCoordinator(sub, opts, dist.Config{HeartbeatInterval: -1})
	wait := addWorkersFor(t, coord.AddConn, 2, sub)
	before := sub.sessions.Load()
	if err := coord.Restore(ctx, blob); err != nil {
		t.Fatal(err)
	}
	restoreSessions := sub.sessions.Load() - before
	if err := coord.Advance(ctx, coord.Horizon()); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	wait()
	dir := filepath.Join(t.TempDir(), "resumed")
	writeAll(t, dir, res, coord.Recorder())
	return readTree(t, dir), restoreSessions
}

// mutatingOptions is a short DNS CMFuzz campaign whose saturation
// window is small enough that configuration mutations (target
// restarts under new configurations) happen well before mid-campaign.
func mutatingOptions() parallel.Options {
	return parallel.Options{
		Mode: parallel.ModeCMFuzz, Instances: 2, VirtualHours: 0.05, Seed: 11, Concurrency: 1,
		SaturationWindow: 20, SaturationMinGain: 2000,
	}
}

// longer returns opts with the horizon moved to hours.
func longer(opts parallel.Options, hours float64) parallel.Options {
	opts.VirtualHours = hours
	return opts
}

// TestRestoreRunsNoSessions pins bounded-cost restore: a checkpoint of
// Go subjects carries instance snapshots, so Restore resumes every
// instance without running a single target session, and the resumed
// campaign still ends byte-identical to an uninterrupted in-process
// run. The DNS cases have configuration mutations before the
// checkpoint, so the snapshot must carry the mutated configuration and
// the mutation stream's position; the lossy cases run with link loss
// and latency on, so it must carry the netsim streams' positions too.
// Snapshots usually ride on the last lease of an Advance that stops
// short of the horizon; the case checkpointing at the horizon has no
// such lease, so it takes them over the Snapshot RPC instead.
func TestRestoreRunsNoSessions(t *testing.T) {
	lossyDNS := longer(mutatingOptions(), 0.25)
	lossyDNS.LinkLoss, lossyDNS.LinkLatencyBase, lossyDNS.LinkLatencyJitter = 0.1, 0.002, 0.003
	lossy := parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.5, Seed: 5, Concurrency: 1,
		LinkLoss: 0.1, LinkLatencyBase: 0.002, LinkLatencyJitter: 0.003}
	for _, tc := range []struct {
		name, subject string
		opts          parallel.Options
		at            float64
		wantMutations bool
	}{
		{"dns-mutated", "DNS", longer(mutatingOptions(), 0.25), 100, true},
		{"dns-snapshot-rpc", "DNS", longer(mutatingOptions(), 0.25), 900, true},
		{"dns-mutated-lossy", "DNS", lossyDNS, 100, true},
		{"dtls-lossy", "DTLS", lossy, 900, false},
		{"mqtt", "MQTT", parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 3, Concurrency: 1}, 500, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub := &sessionCounter{Subject: mustSubject(t, tc.subject)}
			want := baselineTree(t, sub, tc.opts)
			blob, muts := checkpointAt(t, sub, tc.opts, tc.at)
			if tc.wantMutations && muts == 0 {
				t.Fatal("no configuration mutation before the checkpoint; the case does not test what it claims")
			}
			got, sessions := resumeTree(t, sub, tc.opts, blob)
			if sessions != 0 {
				t.Errorf("Restore ran %d target sessions, want 0", sessions)
			}
			diffTrees(t, "snapshot restore", want, got)
		})
	}
}

// TestRestoreThenCheckpointIsIdentity checks that a restore lands every
// worker in exactly the captured state: checkpointing the restored
// campaign before it advances reproduces the original checkpoint byte
// for byte, snapshots included.
func TestRestoreThenCheckpointIsIdentity(t *testing.T) {
	sub := &sessionCounter{Subject: mustSubject(t, "DNS")}
	opts := longer(mutatingOptions(), 0.25)
	blob, _ := checkpointAt(t, sub, opts, 100)
	coord := dist.NewCoordinator(sub, opts, dist.Config{HeartbeatInterval: -1})
	wait := addWorkersFor(t, coord.AddConn, 3, sub)
	if err := coord.Restore(context.Background(), blob); err != nil {
		t.Fatal(err)
	}
	again, err := coord.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	wait()
	if !bytes.Equal(again, blob) {
		t.Fatalf("checkpoint after restore differs: %d bytes vs %d", len(again), len(blob))
	}
}

// TestRestoreReplaysWithoutState pins the fallback: when the target
// cannot capture its state (subject.ErrNoState), the checkpoint keeps
// the lease journal since boot, Restore replays it (running sessions),
// and the artifacts are still byte-identical.
func TestRestoreReplaysWithoutState(t *testing.T) {
	opts := mutatingOptions()
	sub := &sessionCounter{Subject: mustSubject(t, "DNS"), noState: true}
	want := baselineTree(t, sub, opts)
	blob, _ := checkpointAt(t, sub, opts, 100)
	got, sessions := resumeTree(t, sub, opts, blob)
	if sessions == 0 {
		t.Error("Restore ran no target sessions; the journal was not replayed")
	}
	diffTrees(t, "replay restore", want, got)
}

// TestRestoreCheckpointV1 restores a checkpoint written in format
// version 1, before snapshots existed: DNS, CMFuzz, the options of
// mutatingOptions, taken at virtual time 100. It restores through
// journal replay and must still finish byte-identical.
func TestRestoreCheckpointV1(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "fuzz", "checkpoints", "v1-dns.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.ValidateCheckpoint(blob); err != nil {
		t.Fatalf("v1 checkpoint no longer validates: %v", err)
	}
	opts := mutatingOptions()
	sub := &sessionCounter{Subject: mustSubject(t, "DNS")}
	want := baselineTree(t, sub, opts)
	got, sessions := resumeTree(t, sub, opts, blob)
	if sessions == 0 {
		t.Error("a v1 checkpoint restored without replaying its journal")
	}
	diffTrees(t, "v1 restore", want, got)
}

var regenSeeds = flag.Bool("regen-seeds", false, "rewrite the v2 checkpoint seeds under testdata/fuzz/checkpoints")

// TestRegenerateCheckpointSeeds rewrites the version 2 checkpoints the
// fuzz targets start from, after a format change:
//
//	go test ./internal/dist -run TestRegenerateCheckpointSeeds -regen-seeds
//
// The version 1 seeds cannot be regenerated: they were written by the
// version 1 encoder, from the same campaigns (the DTLS one without
// latency, which version 1 coordinators did not replay).
func TestRegenerateCheckpointSeeds(t *testing.T) {
	if !*regenSeeds {
		t.Skip("pass -regen-seeds to rewrite the seed files")
	}
	for _, tc := range []struct {
		file, subject string
		opts          parallel.Options
		at            float64
	}{
		{"v2-dns.bin", "DNS", mutatingOptions(), 100},
		{"v2-dtls.bin", "DTLS", parallel.Options{Mode: parallel.ModeCMFuzz, Instances: 2, VirtualHours: 0.03, Seed: 5,
			Concurrency: 1, LinkLoss: 0.1, LinkLatencyBase: 0.002, LinkLatencyJitter: 0.003}, 60},
	} {
		blob, _ := checkpointAt(t, mustSubject(t, tc.subject), tc.opts, tc.at)
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "checkpoints", tc.file), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
