package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/dist"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/netsim"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry/metrics"
	"cmfuzz/internal/telemetry/trace"
)

// A kit collects the traced run's observations: the program's own
// spans (via Options.Trace), the subject wrapper's counters, the dist
// Observer's lease summaries and the fleet's lease-latency histogram.
type kit struct {
	tracer *trace.Tracer
	root   *trace.Span

	mu     sync.Mutex
	ctrs   map[string]*counters // by protocol
	leases []float64            // lease round trips, seconds
	recs   int                  // replayable records over all leases
	deaths int

	fleetLeaseP50 float64 // seconds
}

func newKit() *kit {
	t := trace.New()
	return &kit{tracer: t, root: t.Start("bench"), ctrs: map[string]*counters{}}
}

// Message sampling for the netsim ladder: every 64th message, at most
// 4096 of them in at most 1 MiB.
const (
	sampleStride   = 64
	sampleMsgs     = 4096
	sampleMaxBytes = 1 << 20
)

// wrap returns sub with its instances counted under sub's protocol.
func (k *kit) wrap(sub subject.Subject) subject.Subject {
	p := sub.Info().Protocol
	k.mu.Lock()
	defer k.mu.Unlock()
	c := k.ctrs[p]
	if c == nil {
		c = &counters{sample: newMsgSample(sampleStride, sampleMsgs, sampleMaxBytes)}
		k.ctrs[p] = c
	}
	return countingSubject{Subject: sub, c: c}
}

func (k *kit) observer() dist.Observer {
	return dist.Observer{
		Lease: func(instance, records, reqBytes, repBytes int, seconds float64, syncDue bool) {
			k.mu.Lock()
			k.leases = append(k.leases, seconds)
			k.recs += records
			k.mu.Unlock()
		},
		Death: func(string) {
			k.mu.Lock()
			k.deaths++
			k.mu.Unlock()
		},
	}
}

// totals sums the protocol counters over every subject.
func (k *kit) totals() counts {
	var t counts
	for _, c := range k.ctrs {
		t = t.plus(c.snapshot())
	}
	return t
}

// spanTotals sums span durations and counts by name over every local
// and stitched worker span.
func spanTotals(t *trace.Tracer) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, r := range t.Records() {
		s := out[r.Name]
		s.n++
		s.dur += r.End - r.Start
		out[r.Name] = s
	}
	return out
}

type spanTotal struct {
	n   int
	dur time.Duration
}

// A planProbe times the set-up layers through their public calls:
// Host.Plan under a tracing span (relation.quantify and
// schedule.allocate) with the subject's Start calls counted, then one
// Host.Boot per spec.
type planProbe struct {
	plan, allocate, boot time.Duration
	probes               int
	starts               counts
}

// A planTarget is one campaign a workload plans.
type planTarget struct {
	subject string
	opts    parallel.Options
}

func probePlans(targets []planTarget) (planProbe, error) {
	var p planProbe
	for _, t := range targets {
		c := &counters{}
		host, err := parallel.NewHost(countingSubject{Subject: mustSubject(t.subject), c: c}, t.opts)
		if err != nil {
			return p, err
		}
		tr := trace.New()
		span := tr.Start("plan")
		ledger := bugs.NewLedger()
		t0 := time.Now()
		plan := host.Plan(ledger, nil, span)
		p.plan += time.Since(t0)
		span.End()
		p.allocate += spanTotals(tr)["schedule.allocate"].dur
		p.probes += plan.Probes
		p.starts = p.starts.plus(c.snapshot())
		for _, spec := range plan.Specs {
			t0 := time.Now()
			in, err := host.Boot(spec, ledger)
			p.boot += time.Since(t0)
			if err != nil {
				return p, err
			}
			in.Close()
		}
	}
	return p, nil
}

// A ladderResult is the netsim and engine cost of one subject.
type ladderResult struct {
	subject       string
	msgs          int
	sendNs        float64
	allocsPerSend float64
	stepNs        float64
	allocsPerStep float64
}

// ladderPasses is how often the ladder replays the message sample.
const ladderPasses = 8

// runLadder charges netsim and the engine with their share of a
// workload's cost. Two freshly started default-configured instances
// receive the campaign's sampled messages, session by session in the
// same order: one through a netsim namespace, as the campaign sends
// them, the other straight into the subject. Each session is timed on
// both paths back to back, alternating which goes first, so a stall of
// the machine lands on both paths alike; the difference per message is
// netsim's cost. The engine is then stepped over the subject's Pit
// with a no-op target, its corpus seeded with the same sample so
// generation, havoc and splicing all occur.
func runLadder(name string, opts parallel.Options, sessions [][][]byte) (ladderResult, error) {
	res := ladderResult{subject: name}
	sub := mustSubject(name)
	host, err := parallel.NewHost(sub, opts)
	if err != nil {
		return res, err
	}
	for _, s := range sessions {
		res.msgs += len(s)
	}
	boot := func() (subject.Instance, *coverage.Trace, error) {
		inst := sub.NewInstance()
		tr := coverage.NewTrace()
		var startErr error
		if crash := bugs.Capture(func() { startErr = inst.Start(map[string]string(host.Defaults), tr) }); crash != nil {
			startErr = crash
		}
		if startErr != nil {
			inst.Close()
			return nil, nil, startErr
		}
		inst.SetTrace(tr)
		return inst, tr, nil
	}
	viaInst, viaTr, err := boot()
	if err != nil {
		return res, err
	}
	defer viaInst.Close()
	dirInst, dirTr, err := boot()
	if err != nil {
		return res, err
	}
	defer dirInst.Close()

	info := sub.Info()
	ns := netsim.NewFabric().Namespace("ladder")
	var viaNetsim func(msgs [][]byte)
	if info.Transport == subject.Datagram {
		if err := ns.BindDatagram(info.Port, netsim.DatagramHandlerFunc(func(_ netsim.Addr, p []byte) [][]byte {
			return viaInst.Message(p)
		})); err != nil {
			return res, err
		}
		src := netsim.Addr{Host: "fuzzer", Port: 49152}
		dst := netsim.Addr{Host: ns.Name(), Port: info.Port}
		viaNetsim = func(msgs [][]byte) {
			for _, m := range msgs {
				if _, err := ns.SendDatagram(src, dst, m); err != nil {
					return
				}
			}
		}
	} else {
		if err := ns.Listen(info.Port, streamServer{viaInst}); err != nil {
			return res, err
		}
		viaNetsim = func(msgs [][]byte) {
			conn, err := ns.Dial(info.Port)
			if err != nil {
				return
			}
			defer conn.Close()
			for _, m := range msgs {
				if _, err := conn.Send(m); err != nil {
					return
				}
			}
		}
	}
	direct := func(msgs [][]byte) {
		for _, m := range msgs {
			dirInst.Message(m)
		}
	}
	// Both paths open a session and capture a crash per session, as the
	// campaign's target adapter does, so only the transport differs.
	session := func(inst subject.Instance, tr *coverage.Trace, deliver func([][]byte), msgs [][]byte) {
		inst.NewSession()
		tr.Reset()
		bugs.Capture(func() { deliver(msgs) })
	}
	viaSession := func(msgs [][]byte) { session(viaInst, viaTr, viaNetsim, msgs) }
	dirSession := func(msgs [][]byte) { session(dirInst, dirTr, direct, msgs) }

	// Allocation counts are exact, so one pass per path gives them.
	var m meter
	m.start()
	for _, s := range sessions {
		viaSession(s)
	}
	viaAllocs := m.stop().mallocs
	m.start()
	for _, s := range sessions {
		dirSession(s)
	}
	dirAllocs := m.stop().mallocs

	var viaT, dirT time.Duration
	for p := 0; p < ladderPasses; p++ {
		for i, s := range sessions {
			first, second, tFirst, tSecond := viaSession, dirSession, &viaT, &dirT
			if i%2 == 1 {
				first, second, tFirst, tSecond = dirSession, viaSession, &dirT, &viaT
			}
			t0 := time.Now()
			first(s)
			t1 := time.Now()
			second(s)
			*tFirst += t1.Sub(t0)
			*tSecond += time.Since(t1)
		}
	}
	if res.msgs > 0 {
		res.sendNs = float64(viaT-dirT) / float64(res.msgs*ladderPasses)
		res.allocsPerSend = (float64(viaAllocs) - float64(dirAllocs)) / float64(res.msgs)
	}

	eng := fuzz.NewEngine(fuzz.Config{Models: host.Pit.DataModels, StateModel: host.StateModel, Seed: opts.Seed},
		fuzz.TargetFunc(func([][]byte, *coverage.Trace) *bugs.Crash { return nil }))
	seeds := make([]fuzz.Seed, len(sessions))
	for i, s := range sessions {
		seeds[i] = fuzz.Seed{Msgs: s, Gain: 1}
	}
	eng.ImportSeeds(seeds)
	const warm, steps = 500, 20000
	for i := 0; i < warm; i++ {
		eng.Step()
	}
	var stepNs, stepAlloc []float64
	for i := 0; i < 3; i++ {
		m.start()
		for j := 0; j < steps; j++ {
			eng.Step()
		}
		u := m.stop()
		stepNs = append(stepNs, float64(u.wall)/steps)
		stepAlloc = append(stepAlloc, float64(u.mallocs)/steps)
	}
	res.stepNs = median(stepNs)
	res.allocsPerStep = median(stepAlloc)
	return res, nil
}

// streamServer serves a subject instance on a netsim stream listener.
type streamServer struct{ inst subject.Instance }

func (s streamServer) OnConnect(*netsim.Conn) {}
func (s streamServer) OnData(_ *netsim.Conn, data []byte) [][]byte {
	return s.inst.Message(data)
}
func (s streamServer) OnClose(*netsim.Conn) {}

// handoffs classifies each fleet round's slices from outside: the
// manager's flight recorder (Manager.Flight) logs one "handoff" entry
// per slice, warm or cold, and Status supplies partition sizes and
// slice counts between rounds.
type handoffs struct {
	rig        *fleetRig
	seen       map[string]int64 // flight entries already read, per campaign
	prev       map[string]int   // slices before the round, per campaign
	ckpts      []float64        // checkpoint.bin sizes after each round
	rows       []roundRow
	warm, cold int
	lost       int // slices whose flight entry was evicted before it was read
}

func newHandoffs(rig *fleetRig) *handoffs {
	return &handoffs{rig: rig, seen: map[string]int64{}, prev: map[string]int{}}
}

// A roundRow is one fleet round as the traced run prints it.
type roundRow struct {
	round   int
	ms      float64
	warm    int
	cold    int
	starts  int
	workers []string // campaign=partition size after the round
	ckpts   []string // campaign=checkpoint bytes after the round
}

// observe records the round that just ended; a nil receiver ignores
// it, so untraced reps skip the accounting.
func (h *handoffs) observe(round int, d time.Duration) {
	if h == nil {
		return
	}
	row := roundRow{round: round, ms: ms(d)}
	for _, st := range h.rig.mgr.Status() {
		row.workers = append(row.workers, fmt.Sprintf("%s=%d", st.ID, st.Workers))
		if fi, err := os.Stat(filepath.Join(h.rig.dir, st.ID, "checkpoint.bin")); err == nil {
			h.ckpts = append(h.ckpts, float64(fi.Size()))
			row.ckpts = append(row.ckpts, fmt.Sprintf("%s=%d", st.ID, fi.Size()))
		}
		prev := h.prev[st.ID]
		h.prev[st.ID] = st.Slices
		if st.Slices == prev {
			continue
		}
		doc, ok := h.rig.mgr.Flight(st.ID)
		if !ok {
			continue
		}
		fresh := doc.Total - h.seen[st.ID]
		h.seen[st.ID] = doc.Total
		if fresh > int64(len(doc.Events)) {
			h.lost++
			continue
		}
		for _, e := range doc.Events[int64(len(doc.Events))-fresh:] {
			detail, _ := e.Detail.(map[string]any)
			if e.Kind != "handoff" || detail == nil {
				continue
			}
			switch warm, _ := detail["warm"].(bool); {
			case warm:
				row.warm++
			case prev == 0:
				row.starts++
			default:
				row.cold++
			}
		}
	}
	h.warm += row.warm
	h.cold += row.cold
	h.rows = append(h.rows, row)
}

// histogramMedian estimates the median of a registry histogram from its
// text exposition, interpolating linearly inside the bucket.
func histogramMedian(reg *metrics.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return 0
	}
	type bucket struct{ le, n float64 }
	var bs []bucket
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"_bucket{") {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndex(line, " ")
		if i < 0 || j < 0 {
			continue
		}
		leStr := line[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le, err1 := strconv.ParseFloat(leStr, 64)
		n, err2 := strconv.ParseFloat(line[j+1:], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	half := bs[len(bs)-1].n / 2
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= half {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(half-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}
