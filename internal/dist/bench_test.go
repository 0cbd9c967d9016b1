package dist_test

import (
	"context"
	"fmt"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry/trace"
)

// benchOpts is the shared workload: the same campaign the byte-identity
// tests pin, so the two benchmarks below measure transport overhead on
// provably identical work.
func benchOpts() parallel.Options {
	return parallel.Options{
		Mode:         parallel.ModeCMFuzz,
		VirtualHours: 0.5,
		Seed:         11,
		Concurrency:  1,
	}
}

// BenchmarkInProcess is the baseline: the campaign run by parallel.Run
// in one process, no wire anywhere.
func BenchmarkInProcess(b *testing.B) {
	sub := mustSubjectB(b, "DNS")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Run(context.Background(), sub, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistLoopback is the same campaign through a coordinator and
// two net.Pipe workers on the lease protocol — one RPC round-trip per
// sync interval, with every step record riding the consolidated lease
// replies. The ns/op delta against BenchmarkInProcess is the full cost
// of distribution; lease-bytes/op is the total lease traffic (seeds
// out, step records and coverage deltas back).
func BenchmarkDistLoopback(b *testing.B) {
	sub := mustSubjectB(b, "DNS")
	b.ReportAllocs()
	var leaseBytes int64
	for i := 0; i < b.N; i++ {
		_, coord, err := dist.RunLocal(context.Background(), sub, benchOpts(), 2, dist.Config{})
		if err != nil {
			b.Fatal(err)
		}
		leaseBytes = coord.Stats().SyncBytes
	}
	b.ReportMetric(float64(leaseBytes), "lease-bytes/op")
}

// BenchmarkLeaseTraceOverhead is BenchmarkDistLoopback with
// cross-process tracing on: workers record per-lease spans, ship them
// in every lease reply, and the coordinator stitches them. Compare
// ns/op against BenchmarkDistLoopback — the issue budget for the whole
// span pipeline (record, encode, decode, ingest) is under 5% of wall
// time; spans/op reports how much span traffic that bought.
func BenchmarkLeaseTraceOverhead(b *testing.B) {
	sub := mustSubjectB(b, "DNS")
	b.ReportAllocs()
	var spans int
	for i := 0; i < b.N; i++ {
		tracer := trace.New()
		root := tracer.Start("coordinator")
		opts := benchOpts()
		opts.Trace = root
		_, _, err := dist.RunLocal(context.Background(), sub, opts, 2, dist.Config{})
		if err != nil {
			b.Fatal(err)
		}
		root.End()
		spans = tracer.SpanCount()
	}
	b.ReportMetric(float64(spans), "spans/op")
}

func mustSubjectB(b *testing.B, name string) subject.Subject {
	b.Helper()
	sub, err := protocols.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return sub
}

// BenchmarkRestoreAge measures a cold hand-off's restore as the
// campaign ages: DNS, CMFuzz, 4 instances, checkpointed after 0.5 to
// 8 virtual hours and restored onto a fresh coordinator with 2 pipe
// workers. An op is one Restore call. sessions/op counts the target
// sessions the restore ran (journal replay re-executes the campaign's
// history; snapshot restore runs none), and checkpoint-bytes is the
// size of the restored checkpoint.
func BenchmarkRestoreAge(b *testing.B) {
	for _, hours := range []float64{0.5, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("hours=%g", hours), func(b *testing.B) {
			sub := &sessionCounter{Subject: mustSubjectB(b, "DNS")}
			opts := parallel.Options{Mode: parallel.ModeCMFuzz, Instances: 4, VirtualHours: hours + 1, Seed: 11, Concurrency: 1}
			blob, _ := checkpointAt(b, sub, opts, hours*3600)
			var sessions int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				coord := dist.NewCoordinator(sub, opts, dist.Config{HeartbeatInterval: -1})
				wait := addWorkersFor(b, coord.AddConn, 2, sub)
				before := sub.sessions.Load()
				b.StartTimer()
				if err := coord.Restore(context.Background(), blob); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sessions += sub.sessions.Load() - before
				coord.Close()
				wait()
				b.StartTimer()
			}
			b.ReportMetric(float64(sessions)/float64(b.N), "sessions/op")
			b.ReportMetric(float64(len(blob)), "checkpoint-bytes")
		})
	}
}
