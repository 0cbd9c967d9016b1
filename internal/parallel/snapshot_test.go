package parallel

import (
	"reflect"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
)

// TestResumeContinuesIdentically snapshots a running instance and
// resumes it on a fresh host: from there on, the original and the
// resumed instance must step identically — same step records, same
// clocks, same coverage maps, same results. The campaign mutates its
// configuration often and runs over a lossy, slow link, so the
// snapshot must carry the mutated configuration and the positions of
// the mutation, loss and latency streams, not just the engine.
func TestResumeContinuesIdentically(t *testing.T) {
	opts := Options{Mode: ModeCMFuzz, Instances: 2, VirtualHours: 1, Seed: 7, Concurrency: 1,
		SaturationWindow: 20, SaturationMinGain: 2000,
		LinkLoss: 0.1, LinkLatencyBase: 0.002, LinkLatencyJitter: 0.003}
	for _, name := range []string{"DNS", "MQTT", "CoAP"} {
		t.Run(name, func(t *testing.T) {
			sub := mustSubject(t, name)
			host, err := NewHost(sub, opts)
			if err != nil {
				t.Fatal(err)
			}
			spec := host.Plan(bugs.NewLedger(), nil, nil).Specs[1]
			orig, err := host.Boot(spec, &RecordingSink{})
			if err != nil {
				t.Fatal(err)
			}
			defer orig.Close()
			orig.StepN(300, 3600, nil, nil)
			if orig.Mutations() == 0 {
				t.Fatal("no configuration mutation before the snapshot")
			}
			snap, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			fresh, err := NewHost(sub, opts)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := fresh.Resume(spec, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if resumed.ConfigString() != orig.ConfigString() || resumed.Clock() != orig.Clock() {
				t.Fatalf("resumed at %q t=%v, original at %q t=%v",
					resumed.ConfigString(), resumed.Clock(), orig.ConfigString(), orig.Clock())
			}

			record := func(in *Instance) []LeaseStep {
				var recs []LeaseStep
				in.StepN(900, 3600, nil, func(rec *LeaseStep) {
					rec.Seed.Msgs = nil // compared through the coverage maps
					recs = append(recs, *rec)
				})
				return recs
			}
			a, b := record(orig), record(resumed)
			if len(a) == 0 || !reflect.DeepEqual(a, b) {
				t.Fatalf("after resume the instances stepped differently (%d vs %d records)", len(a), len(b))
			}
			if orig.Clock() != resumed.Clock() || !sameMap(orig.CoverageMap(), resumed.CoverageMap()) {
				t.Fatalf("after resume: clocks %v vs %v, coverage %d vs %d",
					orig.Clock(), resumed.Clock(), orig.Coverage(), resumed.Coverage())
			}
			if !reflect.DeepEqual(orig.Result(), resumed.Result()) {
				t.Fatalf("results diverged:\n%+v\n%+v", orig.Result(), resumed.Result())
			}
		})
	}
}

func sameMap(a, b *coverage.Map) bool { return reflect.DeepEqual(a.Indices(), b.Indices()) }
