package dist

import (
	"testing"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/wire"
)

// TestLeaseRecordLatency pins the link-latency field of a step record:
// it survives the lease reply and the checkpoint's re-encoding exactly
// (the coordinator adds it to the replayed clock, so one lost bit moves
// every later event), a bare step stays two bytes, and flag bits beyond
// the known set are still rejected.
func TestLeaseRecordLatency(t *testing.T) {
	steps := []parallel.LeaseStep{{Bytes: 41}, {Bytes: 7, Latency: 0.0023419170000000003}}
	recs, _, _, _, err := decodeLeaseResult(encodeLeaseResult(steps, false))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].latency != 0 || recs[1].latency != steps[1].Latency {
		t.Fatalf("latencies %v, %v; want 0, %v", recs[0].latency, recs[1].latency, steps[1].Latency)
	}
	if n := len(encodeLeaseResult(steps[:1], false)) - len(encodeLeaseResult(nil, false)); n != 2 {
		t.Fatalf("a bare step costs %d bytes, want 2", n)
	}

	w := &wire.Writer{}
	putLeaseRecord(w, &recs[1])
	r := wire.NewReader(w.Bytes())
	again, err := getLeaseRecord(r, r.U8())
	if err != nil || again.latency != steps[1].Latency {
		t.Fatalf("checkpoint re-encoding gave latency %v (err %v), want %v", again.latency, err, steps[1].Latency)
	}

	if _, _, _, _, err := decodeLeaseResult([]byte{0x10, 0x00, leaseEnd, 0}); err == nil {
		t.Fatal("unknown flag bit accepted")
	}
}
