package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// traced is the --trace 1 run. It alternates an untraced and a traced
// rep of the same seed until --seconds have passed: their artifacts
// must be byte-identical, and their wall-time ratio is the tracing
// overhead. The per-layer figures come from the first traced rep, the
// public set-up calls (probePlans) and the netsim/engine ladder.
func (b *bench) traced() report {
	var ratios []float64
	var k *kit
	var t *repResult
	start := time.Now()
	for i := 0; i < maxReps && (i == 0 || since(start) < b.cfg.seconds); i++ {
		seed := repSeed(b.cfg.seed, i)
		plain := b.runRep(seed, nil)
		runtime.GC()
		kt := newKit()
		traced := b.runRep(seed, kt)
		kt.root.End()
		if plain == nil || traced == nil {
			continue
		}
		plainOK, tracedOK := len(plain.failures) == 0, len(traced.failures) == 0
		if plainOK != tracedOK {
			b.op(fmt.Sprintf("traced vs untraced: only one of the two reps at seed %d failed", seed))
		}
		if !plainOK || !tracedOK {
			continue
		}
		b.op(sameDigests("traced vs untraced", traced, plain)...)
		ratios = append(ratios, traced.use.wall.Seconds()/plain.use.wall.Seconds())
		if t == nil {
			k, t = kt, traced
		}
	}
	if t == nil {
		return b.report(b.zeroLayers())
	}

	probe, err := probePlans(b.w.plans(b, t.seed))
	b.op(errText("set-up probe", err)...)
	// One ladder per subject: campaigns of one subject share its
	// counters and its message sample.
	var ladders []ladderResult
	laddered := map[string]bool{}
	for _, p := range b.w.plans(b, t.seed) {
		if laddered[p.subject] {
			continue
		}
		laddered[p.subject] = true
		c := k.ctrs[protocolOf(p.subject)]
		if c == nil {
			b.op("no counters for " + p.subject)
			continue
		}
		l, err := runLadder(p.subject, p.opts, c.sample.sessions())
		b.op(errText("ladder "+p.subject, err)...)
		ladders = append(ladders, l)
	}
	return b.report(b.layerMetrics(k, t, probe, ladders, median(ratios)))
}

func errText(what string, err error) []string {
	if err == nil {
		return nil
	}
	return []string{what + ": " + err.Error()}
}

func protocolOf(name string) string { return mustSubject(name).Info().Protocol }

// zeroLayers reports a traced run in which no traced rep succeeded:
// every layer reads 0 but failed_share.
func (b *bench) zeroLayers() []metric {
	var out []metric
	for _, name := range layerNames() {
		m := metric{name: name}
		if name == "failed_share" {
			m.value = float64(len(b.failures)) / float64(b.attempted)
		}
		out = append(out, m)
	}
	return out
}

// layerNames lists the per-layer metrics in print order.
func layerNames() []string {
	var names []string
	for name := range units {
		if strings.Contains(name, ".") || name == "failed_share" || name == "bugs_unique" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// layerMetrics derives every per-layer figure of the traced rep t and
// prints the reconciliation row and, on fleet-dtls, the per-round and
// per-campaign hand-off tables.
func (b *bench) layerMetrics(k *kit, t *repResult, probe planProbe, ladders []ladderResult, overhead float64) []metric {
	spans := spanTotals(k.tracer)
	tot := k.totals()
	wall := t.use.wall
	execs := float64(t.execs)
	sec := func(d time.Duration) float64 { return d.Seconds() }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Layer costs: netsim and the engine are charged per message and per
	// exec at the ladder's rates, per subject.
	var netsimNs, fuzzNs, sendNs, sendAllocs, stepNs, stepAllocs float64
	for _, l := range ladders {
		c := k.ctrs[protocolOf(l.subject)].snapshot()
		netsimNs += l.sendNs * float64(c.msgs)
		fuzzNs += l.stepNs * float64(c.sessions)
		sendNs += l.sendNs / float64(len(ladders))
		sendAllocs += l.allocsPerSend / float64(len(ladders))
		stepNs += l.stepNs / float64(len(ladders))
		stepAllocs += l.allocsPerStep / float64(len(ladders))
		fmt.Fprintf(b.out, "# ladder %s: %d sampled msgs, netsim %.0f ns/send %.2f allocs/send, engine %.0f ns/step %.2f allocs/step\n",
			l.subject, l.msgs, l.sendNs, l.allocsPerSend, l.stepNs, l.allocsPerStep)
	}

	setupSpans := spans["relation.quantify"].dur + spans["schedule.allocate"].dur + spans["instance.boot"].dur
	loopSpans := spans["sync"].dur + spans["config.mutate"].dur
	distSpans := spans["lease.decode"].dur + spans["lease.encode"].dur + spans["corpus.absorb"].dur
	loop := wall - setupSpans
	layers := []struct {
		name string
		d    time.Duration
	}{
		{"protocols.message", time.Duration(tot.msgNanos)},
		{"netsim", time.Duration(netsimNs)},
		{"fuzz.engine", time.Duration(fuzzNs)},
		{"core+parallel.spans", setupSpans + loopSpans},
		{"dist.codec", distSpans},
	}
	var sumLayers time.Duration
	var row strings.Builder
	for _, l := range layers {
		sumLayers += l.d
		fmt.Fprintf(&row, " %s=%.1fms", l.name, ms(l.d))
	}
	// Layers on several goroutines add up past wall time on dist-dtls and
	// fleet-dtls, so the remainder is taken against CPU time, which sums
	// every goroutine's work; the wall figure is printed alongside.
	cpu := t.use.cpu
	remainder := cpu - sumLayers
	fmt.Fprintf(b.out, "# reconcile:%s sum=%.1fms cpu=%.1fms remainder=%.1fms (%.1f%% of cpu) wall=%.1fms (%.1f%% of wall unexplained)\n",
		row.String(), ms(sumLayers), ms(cpu), ms(remainder), 100*div(sec(remainder), sec(cpu)),
		ms(wall), 100*div(sec(wall-sumLayers), sec(wall)))
	fmt.Fprintf(b.out, "# tracing overhead: traced wall / untraced wall = %.3f\n", overhead)

	leaseMs := make([]float64, len(k.leases))
	for i, s := range k.leases {
		leaseMs[i] = s * 1000
	}
	leasePct, leaseTail := tail(leaseMs)
	if len(leaseMs) > 0 {
		fmt.Fprintf(b.out, "# dist.lease_ms_tail is p%g of %d leases\n", leasePct, len(leaseMs))
	}

	var fleetRounds, cold, warmShare, ckpt float64
	if t.hand != nil {
		h := t.hand
		for _, r := range h.rows {
			fmt.Fprintf(b.out, "# round %d: %.1fms warm=%d cold=%d start=%d workers[%s] checkpoint_bytes[%s]\n",
				r.round, r.ms, r.warm, r.cold, r.starts, strings.Join(r.workers, " "), strings.Join(r.ckpts, " "))
		}
		// The wrapper counts target execs per subject, so the
		// re-execution ratio is per subject; each campaign's own execs
		// are printed beside it.
		var subjects []string
		subjectExecs := map[string]int{}
		for _, id := range t.campaigns {
			sub := t.campaignSubjects[id]
			if _, ok := subjectExecs[sub]; !ok {
				subjects = append(subjects, sub)
			}
			subjectExecs[sub] += t.campaignExecs[id]
			fmt.Fprintf(b.out, "# campaign %s (%s): execs=%d\n", id, sub, t.campaignExecs[id])
		}
		for _, sub := range subjects {
			c := k.ctrs[protocolOf(sub)].snapshot()
			fmt.Fprintf(b.out, "# subject %s: execs=%d target_execs=%d reexec_ratio=%.3f\n",
				sub, subjectExecs[sub], c.sessions, div(float64(c.sessions), float64(subjectExecs[sub])))
		}
		if h.lost > 0 {
			b.op(fmt.Sprintf("fleet: %d hand-offs fell out of the flight recorder before they were read", h.lost))
		}
		fleetRounds = float64(len(h.rows))
		cold = float64(h.cold)
		warmShare = div(float64(h.warm), float64(h.warm+h.cold))
		ckpt = mean(h.ckpts)
	}

	failedShare := div(float64(len(b.failures)), float64(b.attempted))
	return []metric{
		{"core.plan_ms", ms(probe.plan)},
		{"core.probes", float64(probe.probes)},
		{"core.probe_start_us", div(float64(probe.starts.startNanos), float64(probe.starts.starts)) / 1e3},
		{"core.allocate_ms", ms(probe.allocate)},
		{"parallel.boot_ms", ms(probe.boot)},
		{"parallel.sync_ms", ms(spans["sync"].dur)},
		{"parallel.syncs", float64(spans["sync"].n)},
		{"parallel.mutate_ms", ms(spans["config.mutate"].dur)},
		{"parallel.config_mutations", float64(spans["config.mutate"].n)},
		{"parallel.crash_steps", float64(t.crashSteps)},
		{"parallel.other_share", div(sec(loop-time.Duration(tot.msgNanos)-loopSpans), sec(loop))},
		{"protocols.execs", float64(tot.sessions)},
		{"protocols.reexec_ratio", div(float64(tot.sessions), execs)},
		{"protocols.msgs_per_exec", div(float64(tot.msgs), float64(tot.sessions))},
		{"protocols.message_ns", div(float64(tot.msgNanos), float64(tot.msgs))},
		{"protocols.busy_share", div(float64(tot.msgNanos), float64(wall))},
		{"protocols.starts", float64(tot.starts)},
		{"protocols.start_us", div(float64(tot.startNanos), float64(tot.starts)) / 1e3},
		{"protocols.crashes", float64(tot.crashes)},
		{"netsim.send_ns", sendNs},
		{"netsim.allocs_per_send", sendAllocs},
		{"fuzz.step_ns", stepNs},
		{"fuzz.allocs_per_step", stepAllocs},
		{"dist.leases", float64(len(k.leases))},
		{"dist.records_per_lease", div(float64(k.recs), float64(len(k.leases)))},
		{"dist.lease_ms_p50", median(leaseMs)},
		{"dist.lease_ms_tail", leaseTail},
		{"dist.lease_bytes_per_exec", div(float64(t.stats.SyncBytes), execs)},
		{"dist.encode_ms", ms(spans["lease.encode"].dur)},
		{"dist.decode_ms", ms(spans["lease.decode"].dur)},
		{"dist.worker_busy_share", div(sec(spans["lease.steps"].dur), float64(t.workers)*sec(wall))},
		{"dist.reassignments", float64(t.stats.Reassignments)},
		{"dist.worker_deaths", float64(max(t.stats.WorkerDeaths, k.deaths))},
		{"fleet.rounds", fleetRounds},
		{"fleet.cold_handoffs", cold},
		{"fleet.warm_share", warmShare},
		{"fleet.checkpoint_bytes", ckpt},
		{"fleet.lease_ms_p50", k.fleetLeaseP50 * 1000},
		{"failed_share", failedShare},
		{"bugs_unique", float64(t.bugs)},
		{"trace.overhead_ratio", overhead},
		{"reconcile.remainder_share", div(sec(remainder), sec(cpu))},
	}
}
