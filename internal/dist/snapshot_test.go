package dist

import (
	"context"
	"net"
	"reflect"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
)

// TestSnapshotCarriesReportedCoverage pins the worker half of a
// snapshot: what the worker has already reported to the coordinator
// (its repState) must move with the instance, or the resumed worker
// would leave coverage out of, or repeat it in, later lease deltas.
// Both forms are covered: the usual reported == engine map, and a
// reported map that lags the engine's (a mutation restart absorbed
// startup coverage not yet reported), with the full-scan flag set.
func TestSnapshotCarriesReportedCoverage(t *testing.T) {
	opts := parallel.Options{Mode: parallel.ModeCMFuzz, Instances: 1, VirtualHours: 1, Seed: 3, Concurrency: 1}
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	host, err := parallel.NewHost(sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	assignment := encodeAssign(assign{Subject: "DNS", Opts: opts, Specs: host.Plan(bugs.NewLedger(), nil, nil).Specs})
	newWorker := func() *Worker {
		w := NewWorker(WorkerConfig{Name: "w", Resolve: func(string) (subject.Subject, error) { return sub, nil }})
		if _, _, err := w.handle(msgAssign, assignment); err != nil {
			t.Fatal(err)
		}
		return w
	}
	call := func(w *Worker, typ byte, payload []byte, want byte) []byte {
		t.Helper()
		rtyp, p, err := w.handle(typ, payload)
		if err != nil || rtyp != want {
			t.Fatalf("message %d: reply %d, err %v", typ, rtyp, err)
		}
		return p
	}

	src := newWorker()
	call(src, msgBoot, encodeBootReq(bootReq{}), msgBootResult)
	call(src, msgLease, encodeLease(lease{Boundary: 300, Horizon: 3600}), msgLeaseResult)
	in, rep := src.camps[0].insts[0], src.camps[0].reported[0]
	for _, lagging := range []bool{false, true} {
		if lagging {
			// Reported lags the engine map by one edge.
			rep.m = coverage.NewMap()
			for _, idx := range in.CoverageMap().Indices()[1:] {
				rep.m.Add(idx)
			}
			rep.fullScan = true
		}
		snap := call(src, msgSnapshot, encodeIndexReq(indexReq{}), msgSnapshotResult)
		dst := newWorker()
		call(dst, msgBoot, encodeBootReq(bootReq{Snapshot: snap}), msgBootResult)
		got := dst.camps[0].reported[0]
		if got.fullScan != rep.fullScan || !reflect.DeepEqual(got.m.Indices(), rep.m.Indices()) {
			t.Fatalf("lagging=%v: resumed reported state has %d edges (full scan %v), want %d (full scan %v)",
				lagging, got.m.Count(), got.fullScan, rep.m.Count(), rep.fullScan)
		}
	}
}

// TestAdvanceCollectsSnapshots pins where snapshots come from: an
// Advance short of the horizon leaves every instance with a snapshot
// taken after its last lease and an empty journal, so the Checkpoint
// that follows needs no Snapshot round-trip; an Advance to the horizon
// (a campaign that is not being sliced) asks for none.
func TestAdvanceCollectsSnapshots(t *testing.T) {
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	start := func() *Coordinator {
		opts := parallel.Options{Mode: parallel.ModeCMFuzz, Instances: 3, VirtualHours: 0.5, Seed: 4, Concurrency: 1}
		coord := NewCoordinator(sub, opts, Config{HeartbeatInterval: -1})
		t.Cleanup(coord.Close)
		for i := 0; i < 2; i++ {
			cConn, wConn := net.Pipe()
			w := NewWorker(WorkerConfig{Name: "w", Resolve: func(string) (subject.Subject, error) { return sub, nil }})
			go w.Serve(wConn)
			if err := coord.AddConn(cConn); err != nil {
				t.Fatal(err)
			}
		}
		if err := coord.Start(ctx); err != nil {
			t.Fatal(err)
		}
		return coord
	}

	// Targets inside the first sync interval and across later ones.
	coord := start()
	for _, until := range []float64{50, 125, 700, 1300} {
		if err := coord.Advance(ctx, until); err != nil {
			t.Fatal(err)
		}
		if err := coord.drainInflight(); err != nil {
			t.Fatal(err)
		}
		for i := range coord.st.specs {
			if len(coord.st.journal[i]) != 0 || len(coord.st.snap[i]) == 0 {
				t.Fatalf("after Advance to %g, instance %d has a %d-lease journal and a %d-byte snapshot",
					until, i, len(coord.st.journal[i]), len(coord.st.snap[i]))
			}
		}
	}

	coord = start()
	if err := coord.Advance(ctx, coord.Horizon()); err != nil {
		t.Fatal(err)
	}
	for i := range coord.st.specs {
		if coord.st.snap[i] != nil {
			t.Fatalf("instance %d took a snapshot on its way to the horizon", i)
		}
	}
}
