package dist

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// Checkpoints come off disk and snapshots off worker connections, so
// both decoders face untrusted bytes. The fuzz targets start from real
// checkpoints of short DNS and DTLS campaigns (testdata/fuzz/checkpoints:
// format versions 1 and 2) and pin two properties: no input panics, and
// decoding allocates in proportion to the input, whatever counts and
// lengths it claims.

// seedCheckpoints reads the committed checkpoint seeds.
func seedCheckpoints(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "checkpoints", "*.bin"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no checkpoint seeds (%v)", err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(p)] = blob
	}
	return out
}

// allocBound is the most a decoder may allocate for an n-byte input:
// a fixed allowance (coverage maps, the telemetry parser's buffers)
// plus a constant factor per input byte.
func allocBound(n int) uint64 { return 1<<20 + 64*uint64(n) }

// allocated runs f and reports the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func FuzzDecodeCheckpoint(f *testing.F) {
	for _, blob := range seedCheckpoints(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocated(func() { decodeCheckpoint(data) }); n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	for name, blob := range seedCheckpoints(f) {
		ck, err := decodeCheckpoint(blob)
		if err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		for _, ci := range ck.inst {
			if len(ci.snap) > 0 {
				f.Add(ci.snap)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *snapshot
		var err error
		if n := allocated(func() { s, err = decodeSnapshot(data) }); n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		// Whatever parses re-encodes canonically: a second round trip
		// changes nothing.
		enc := encodeSnapshot(s)
		s2, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(encodeSnapshot(s2), enc) {
			t.Fatal("snapshot encoding is not a fixed point")
		}
	})
}

// TestCheckpointSeedsDecode keeps the committed seeds honest: both
// format versions must still decode, and the version 2 seeds must
// carry snapshots.
func TestCheckpointSeedsDecode(t *testing.T) {
	for name, blob := range seedCheckpoints(t) {
		ck, err := decodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snaps := 0
		for _, ci := range ck.inst {
			if len(ci.snap) > 0 {
				snaps++
			}
		}
		if want := name[:2] == "v2"; (snaps > 0) != want {
			t.Errorf("%s: %d instances carry snapshots", name, snaps)
		}
	}
}

// smallCheckpoint runs a one-instance DTLS campaign for 20 virtual
// seconds on a pipe worker and checkpoints it: a real version 2
// checkpoint, snapshot included, small enough to cut at every byte.
func smallCheckpoint(t *testing.T) []byte {
	t.Helper()
	sub, err := protocols.ByName("DTLS")
	if err != nil {
		t.Fatal(err)
	}
	opts := parallel.Options{Mode: parallel.ModeCMFuzz, Instances: 1, VirtualHours: 0.01, Seed: 9, Concurrency: 1,
		Telemetry: telemetry.New()}
	coord := NewCoordinator(sub, opts, Config{HeartbeatInterval: -1})
	defer coord.Close()
	cConn, wConn := net.Pipe()
	w := NewWorker(WorkerConfig{Name: "w", Resolve: func(name string) (subject.Subject, error) { return protocols.ByName(name) }})
	go w.Serve(wConn)
	if err := coord.AddConn(cConn); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := coord.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Advance(ctx, 20); err != nil {
		t.Fatal(err)
	}
	blob, err := coord.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestValidateCheckpointRejectsPrefixes pins truncation detection on a
// real version 2 checkpoint: a crash mid-write leaves a prefix of the
// file, and recovery must quarantine it rather than restore half a
// campaign. Every strict prefix must be rejected.
func TestValidateCheckpointRejectsPrefixes(t *testing.T) {
	blob := smallCheckpoint(t)
	ck, err := decodeCheckpoint(blob)
	if err != nil {
		t.Fatalf("the full checkpoint is rejected: %v", err)
	}
	if len(ck.inst) != 1 || len(ck.inst[0].snap) == 0 {
		t.Fatal("the checkpoint carries no snapshot")
	}
	for n := 0; n < len(blob); n++ {
		if ValidateCheckpoint(blob[:n]) == nil {
			t.Fatalf("the %d-byte prefix of a %d-byte checkpoint validates", n, len(blob))
		}
	}
}
