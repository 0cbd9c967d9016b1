package fleet

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
)

// parkPool is a pool of n pipe workers resolving the built-in subjects.
func parkPool(t *testing.T, n int) *dist.Pool {
	t.Helper()
	pool := dist.NewPool(dist.Config{HeartbeatInterval: -1})
	for i := 0; i < n; i++ {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: "w", Resolve: func(name string) (subject.Subject, error) {
			return protocols.ByName(name)
		}})
		go w.Serve(wConn)
		if err := pool.AddConn(cConn); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(pool.Close)
	return pool
}

// TestParkSkipsPersistedCheckpoint pins the cold hand-off shortcut: a
// campaign whose last slice just wrote its checkpoint parks without
// writing again, and the write it skipped would have produced exactly
// the bytes already on disk.
func TestParkSkipsPersistedCheckpoint(t *testing.T) {
	m, err := NewManager(Config{StateDir: t.TempDir(), Slice: 300}, parkPool(t, 2), protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(CampaignSpec{ID: "dns-a", Subject: "DNS", Hours: 0.5, Seed: 11, Instances: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := m.campaigns["dns-a"]
	if c.coord == nil || !c.persisted {
		t.Fatalf("after one slice: coord=%v persisted=%v, want a live, persisted campaign", c.coord, c.persisted)
	}
	path := filepath.Join(m.dir("dns-a"), "checkpoint.bin")
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	again, err := c.coord.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, onDisk) {
		t.Fatalf("re-checkpointing an unadvanced campaign gave %d bytes differing from the %d on disk", len(again), len(onDisk))
	}

	m.park(c)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("park rewrote a checkpoint the last slice had already persisted")
	}
	if c.coord != nil || c.state != StateQueued {
		t.Fatalf("after park: coord=%v state=%s, want parked and queued", c.coord, c.state)
	}
}

// TestPersistFailureSurfaces pins that persistence failures reach the
// status API and the flight recorder instead of vanishing: a parking
// checkpoint that cannot be written, then a triage dump that cannot be.
func TestPersistFailureSurfaces(t *testing.T) {
	m, err := NewManager(Config{StateDir: t.TempDir(), Slice: 300}, parkPool(t, 2), protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(CampaignSpec{ID: "dns-a", Subject: "DNS", Hours: 0.5, Seed: 11, Instances: 2}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Step(ctx); err != nil {
		t.Fatal(err)
	}
	c := m.campaigns["dns-a"]
	// Advance past the persisted checkpoint, so parking must write one,
	// then put a plain file where the campaign's state directory was.
	c.persisted = false
	if err := c.coord.Advance(ctx, c.coord.MinClock()+60); err != nil {
		t.Fatal(err)
	}
	dir := m.dir("dns-a")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	m.park(c)
	if st := m.Status()[0]; !strings.Contains(st.PersistError, "park checkpoint") {
		t.Errorf("status persist_error = %q after a failed parking checkpoint", st.PersistError)
	}
	events, _ := c.flight.snapshot()
	found := false
	for _, ev := range events {
		found = found || ev.Kind == "persist_error"
	}
	if !found {
		t.Error("flight recorder has no persist_error entry")
	}

	m.dumpFlight(c, "test")
	if st := m.Status()[0]; !strings.Contains(st.PersistError, "triage_dump") {
		t.Errorf("status persist_error = %q after a failed triage dump", st.PersistError)
	}
}
