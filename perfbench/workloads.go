package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/campaign"
	"cmfuzz/internal/dist"
	"cmfuzz/internal/fleet"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
)

// A workload is one closed loop: a single goroutine issues the next
// public call only after the previous one returned.
type workload struct {
	name string
	// setup performs the workload's set-up calls once and returns the
	// time spent inside them; everything it starts is stopped again.
	setup func(b *bench, seed int64) (time.Duration, error)
	// rep runs one campaign (or one fleet drain) at seed. With k set,
	// the run is the traced one: subjects are wrapped and spans,
	// observers and metrics are collected into k.
	rep func(b *bench, seed int64, k *kit) (*repResult, error)
	// check compares a rep against an independent execution path of
	// the same seed, outside any timed region.
	check func(b *bench, r *repResult) []string
	// plans lists the campaigns the workload plans at seed.
	plans func(b *bench, seed int64) []planTarget
	// subject is the subject of the single-campaign workloads.
	subject string
}

// A repResult is what one rep measured and produced.
type repResult struct {
	seed       int64
	use        usage
	execs      int
	branches   int
	bugs       int
	crashSteps int
	// rounds are the wall times of the workload's scheduling rounds, ms.
	rounds []float64
	// digests maps each campaign of the rep to the SHA-256 of its
	// artifact tree.
	digests map[string]string
	// failures are operations of the rep that failed; each one counts
	// in failed_share.
	failures []string
	// ops is how many operations the rep attempted.
	ops int

	// Traced-run extras.
	stats            dist.Stats
	workers          int
	hand             *handoffs
	campaigns        []string
	campaignExecs    map[string]int
	campaignSubjects map[string]string
}

// The workloads that cross the dist wire fuzz DTLS only. Every other
// subject's Pit has String fields, and the engine's StringRepeat
// mutator can grow one past dist's 64 MiB frame limit (README.md,
// "Known defect"); DTLS's Pit has none, so no run of it fails.
var workloads = map[string]*workload{
	"campaign-dns": {name: "campaign-dns", setup: campaignSetup, rep: campaignRep, check: campaignCheck, plans: campaignPlans, subject: "DNS"},
	"dist-dtls":    {name: "dist-dtls", setup: distSetup, rep: distRep, check: distCheck, plans: campaignPlans, subject: "DTLS"},
	"fleet-dtls":   {name: "fleet-dtls", setup: fleetSetup, rep: fleetRep, check: fleetCheck, plans: fleetPlans},
}

// distWorkers is the worker count of dist-dtls and fleet-dtls.
const distWorkers = 2

// campaignOptions is the campaign campaign-dns and dist-dtls run: the
// paper's per-campaign budget of 24 virtual hours on 4 CMFuzz
// instances.
func campaignOptions(b *bench, seed int64) parallel.Options {
	return parallel.Options{
		Mode:         parallel.ModeCMFuzz,
		Instances:    4,
		VirtualHours: 24 * b.scale,
		Seed:         seed,
		Concurrency:  b.procs,
	}
}

func campaignPlans(b *bench, seed int64) []planTarget {
	return []planTarget{{subject: b.w.subject, opts: campaignOptions(b, seed)}}
}

func mustSubject(name string) subject.Subject {
	sub, err := protocols.ByName(name)
	if err != nil {
		panic(err) // the workload tables name only registered subjects
	}
	return sub
}

func campaignSetup(b *bench, seed int64) (time.Duration, error) {
	return planSetup(planTarget{subject: b.w.subject, opts: campaignOptions(b, seed)})
}

// planSetup times NewHost, Plan and one Boot per spec as separate
// public calls.
func planSetup(p planTarget) (time.Duration, error) {
	t0 := time.Now()
	host, err := parallel.NewHost(mustSubject(p.subject), p.opts)
	total := time.Since(t0)
	if err != nil {
		return 0, err
	}
	ledger := bugs.NewLedger()
	t0 = time.Now()
	plan := host.Plan(ledger, nil, nil)
	total += time.Since(t0)
	for _, spec := range plan.Specs {
		t0 = time.Now()
		in, err := host.Boot(spec, ledger)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		in.Close()
	}
	return total, nil
}

func campaignRep(b *bench, seed int64, k *kit) (*repResult, error) {
	return inProcessRep(b, campaignOptions(b, seed), k)
}

// inProcessRep runs the workload's subject through parallel.Run.
func inProcessRep(b *bench, opts parallel.Options, k *kit) (*repResult, error) {
	sub := mustSubject(b.w.subject)
	if k != nil {
		sub = k.wrap(sub)
		opts.Trace = k.root
	}
	var m meter
	m.start()
	res, err := parallel.Run(context.Background(), sub, opts)
	use := m.stop()
	r := &repResult{seed: opts.Seed, use: use, ops: 1, rounds: []float64{ms(use.wall)}}
	if err != nil {
		r.failures = append(r.failures, "parallel.Run: "+err.Error())
		return r, nil
	}
	r.addResult(res)
	d, err := b.resultDigest(res, nil)
	if err != nil {
		return nil, err
	}
	r.digests = map[string]string{b.w.subject: d}
	return r, nil
}

func (r *repResult) addResult(res *parallel.Result) {
	r.execs += res.TotalExecs
	r.branches += res.FinalBranches
	r.bugs += res.Bugs.Len()
	for _, in := range res.Instances {
		r.crashSteps += in.Crashes
	}
}

// campaignCheck reruns the same seed in process with relation probing
// on one worker: the artifacts must not depend on the probe pool's
// size. The distributed path is checked on dist-dtls instead, because a
// DNS campaign can hit the frame-limit defect there.
func campaignCheck(b *bench, r *repResult) []string {
	opts := campaignOptions(b, r.seed)
	opts.Concurrency = 1
	other, err := inProcessRep(b, opts, nil)
	if err != nil {
		return []string{"probe-pool reference: " + err.Error()}
	}
	return sameDigests("probe pool of 1", r, other)
}

// distCheck runs the same seed in process: the repo's byte-identity
// invariant says the artifacts are equal.
func distCheck(b *bench, r *repResult) []string {
	other, err := campaignRep(b, r.seed, nil)
	if err != nil {
		return []string{"in-process reference: " + err.Error()}
	}
	return sameDigests("dist vs in-process", r, other)
}

func sameDigests(what string, r, other *repResult) []string {
	if len(other.failures) > 0 {
		return append([]string{what + ": reference failed"}, other.failures...)
	}
	for id, d := range r.digests {
		if other.digests[id] != d {
			return []string{fmt.Sprintf("%s: artifacts of %s differ at seed %d", what, id, r.seed)}
		}
	}
	return nil
}

// pipeWorkers attaches n in-process dist workers over net.Pipe through
// attach and returns a function that waits for all of them to exit
// (they exit when the pool shuts their connection down).
func pipeWorkers(n int, attach func(net.Conn) error, resolve func(string) (subject.Subject, error)) (wait func(), err error) {
	done := make(chan struct{}, n)
	started := 0
	wait = func() {
		for i := 0; i < started; i++ {
			<-done
		}
	}
	for i := 0; i < n; i++ {
		cConn, wConn := net.Pipe()
		name := fmt.Sprintf("bench-%d", i)
		w := dist.NewWorker(dist.WorkerConfig{Name: name, Resolve: resolve})
		// The worker speaks first and pipe writes block until read, so
		// Serve must run before the attach.
		started++
		go func() {
			defer func() { done <- struct{}{} }()
			if err := w.Serve(wConn); err != nil {
				// The coordinator sees the same failure as a dead worker;
				// the cause is only visible here.
				fmt.Fprintf(os.Stderr, "perfbench: worker %s: %v\n", name, err)
			}
		}()
		if err := attach(cConn); err != nil {
			cConn.Close()
			return wait, err
		}
	}
	return wait, nil
}

// resolver maps subject names to subjects, wrapped when k is set.
func resolver(k *kit) func(string) (subject.Subject, error) {
	return func(name string) (subject.Subject, error) {
		sub, err := protocols.ByName(name)
		if err != nil || k == nil {
			return sub, err
		}
		return k.wrap(sub), nil
	}
}

var noHeartbeats = dist.Config{HeartbeatInterval: -1}

// newDistCoordinator builds the dist-dtls coordinator with its workers
// attached. stop closes the campaign and waits for the workers.
func newDistCoordinator(b *bench, seed int64, k *kit) (coord *dist.Coordinator, stop func(), err error) {
	sub := mustSubject(b.w.subject)
	opts := campaignOptions(b, seed)
	if k != nil {
		sub = k.wrap(sub)
		opts.Trace = k.root
	}
	coord = dist.NewCoordinator(sub, opts, noHeartbeats)
	wait, err := pipeWorkers(distWorkers, coord.AddConn, resolver(k))
	stop = func() {
		coord.Close()
		wait()
	}
	if err != nil {
		stop()
		return nil, nil, err
	}
	if k != nil {
		coord.SetObserver(k.observer())
	}
	return coord, stop, nil
}

func distSetup(b *bench, seed int64) (time.Duration, error) {
	coord, stop, err := newDistCoordinator(b, seed, nil)
	if err != nil {
		return 0, err
	}
	defer stop()
	t0 := time.Now()
	err = coord.Start(context.Background())
	return time.Since(t0), err
}

func distRep(b *bench, seed int64, k *kit) (*repResult, error) {
	coord, stop, err := newDistCoordinator(b, seed, k)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	r := &repResult{seed: seed, ops: 1, workers: distWorkers}
	var m meter
	m.start()
	err = coord.Start(ctx)
	if err == nil {
		err = coord.Advance(ctx, coord.Horizon())
	}
	var res *parallel.Result
	if err == nil {
		res, err = coord.Finish(ctx)
	}
	r.use = m.stop()
	r.rounds = []float64{ms(r.use.wall)}
	r.stats = coord.Stats()
	stop()
	if err != nil {
		r.failures = append(r.failures, "dist campaign: "+err.Error())
		return r, nil
	}
	r.ops += 2 // the worker-health check and the Finish call
	if r.stats.WorkerDeaths > 0 || r.stats.Reassignments > 0 {
		r.failures = append(r.failures, fmt.Sprintf("dist: %d worker deaths, %d reassignments",
			r.stats.WorkerDeaths, r.stats.Reassignments))
	}
	r.addResult(res)
	d, err := b.resultDigest(res, nil)
	if err != nil {
		return nil, err
	}
	r.digests = map[string]string{b.w.subject: d}
	return r, nil
}

// fleetSpecs are fleet-dtls's three DTLS campaigns, with distinct
// seeds: more campaigns than workers, so rounds park campaigns and
// restore them cold later.
func fleetSpecs(b *bench, seed int64) []fleet.CampaignSpec {
	var specs []fleet.CampaignSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, fleet.CampaignSpec{
			ID: fmt.Sprintf("dtls-%d", i+1), Subject: "DTLS", Hours: 4 * b.scale, Seed: seed + int64(i), Instances: 2,
		})
	}
	return specs
}

// fleetPlans are the campaigns as the fleet plans them: probing on one
// worker, as fleet.Manager configures every campaign.
func fleetPlans(b *bench, seed int64) []planTarget {
	var out []planTarget
	for _, spec := range fleetSpecs(b, seed) {
		out = append(out, planTarget{subject: spec.Subject, opts: fleetOptions(spec)})
	}
	return out
}

func fleetOptions(spec fleet.CampaignSpec) parallel.Options {
	return parallel.Options{
		Mode:         parallel.ModeCMFuzz,
		Instances:    spec.Instances,
		VirtualHours: spec.Hours,
		Seed:         spec.Seed,
		Concurrency:  1,
	}
}

// fleetSlice is fleet-dtls's scheduling quantum in virtual seconds.
const fleetSlice = 600

// A fleetRig is a manager over a fresh pool and state directory.
type fleetRig struct {
	dir   string
	pool  *dist.Pool
	mgr   *fleet.Manager
	wait  func()
	setup time.Duration
}

// newFleetRig attaches the pool, opens the manager (with its recovery
// scan) and submits the campaigns, timing those three steps.
func newFleetRig(b *bench, seed int64, k *kit) (*fleetRig, error) {
	dir, err := b.tempDir("fleet")
	if err != nil {
		return nil, err
	}
	rig := &fleetRig{dir: dir, wait: func() {}}
	t0 := time.Now()
	rig.pool = dist.NewPool(noHeartbeats)
	rig.wait, err = pipeWorkers(distWorkers, rig.pool.AddConn, resolver(k))
	if err == nil {
		rig.mgr, err = fleet.NewManager(fleet.Config{StateDir: dir, Slice: fleetSlice}, rig.pool, resolver(k))
	}
	for _, spec := range fleetSpecs(b, seed) {
		if err == nil {
			err = rig.mgr.Submit(spec)
		}
	}
	rig.setup = time.Since(t0)
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (rig *fleetRig) close() {
	rig.pool.Close()
	rig.wait()
	os.RemoveAll(rig.dir)
}

// fleetSetup times the rig's set-up plus, for each campaign, the
// planning and boots the fleet runs on the campaign's first slice,
// through the same public calls as campaign-dns. Without them the
// figure is a few sub-millisecond file writes, whose latency swings
// two- to threefold on a shared disk from one minute to the next.
func fleetSetup(b *bench, seed int64) (time.Duration, error) {
	rig, err := newFleetRig(b, seed, nil)
	if err != nil {
		return 0, err
	}
	rig.close()
	total := rig.setup
	for _, p := range fleetPlans(b, seed) {
		d, err := planSetup(p)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func fleetRep(b *bench, seed int64, k *kit) (*repResult, error) {
	rig, err := newFleetRig(b, seed, k)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	r := &repResult{seed: seed, workers: distWorkers}
	var reg *metrics.Registry
	if k != nil {
		reg = metrics.NewRegistry()
		rig.mgr.Instrument(reg)
		r.hand = newHandoffs(rig)
	}
	ctx := context.Background()
	var m meter
	m.start()
	for {
		t0 := time.Now()
		ok, err := rig.mgr.Step(ctx)
		d := time.Since(t0)
		if err != nil {
			r.ops++
			r.failures = append(r.failures, "fleet round: "+err.Error())
			break
		}
		if !ok {
			break
		}
		r.ops++
		r.rounds = append(r.rounds, ms(d))
		r.hand.observe(len(r.rounds), d)
	}
	r.use = m.stop()
	if k != nil {
		k.fleetLeaseP50 = histogramMedian(reg, "cmfuzz_lease_latency_seconds")
	}

	r.digests = map[string]string{}
	r.campaignExecs = map[string]int{}
	r.campaignSubjects = map[string]string{}
	for _, st := range rig.mgr.Status() {
		r.ops++
		r.execs += st.Execs
		r.campaigns = append(r.campaigns, st.ID)
		r.campaignExecs[st.ID] = st.Execs
		r.campaignSubjects[st.ID] = st.Subject
		r.branches += st.Edges
		if st.State != fleet.StateDone {
			r.failures = append(r.failures, fmt.Sprintf("fleet: campaign %s ended %s %s", st.ID, st.State, st.Error))
			continue
		}
		art := filepath.Join(rig.dir, st.ID, "artifacts")
		var final struct {
			UniqueBugs int                       `json:"unique_bugs"`
			Telemetry  map[string]int            `json:"telemetry"`
			Instances  []parallel.InstanceResult `json:"instances"`
		}
		raw, err := os.ReadFile(filepath.Join(art, "result.json"))
		if err == nil {
			err = json.Unmarshal(raw, &final)
		}
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("fleet: campaign %s result: %v", st.ID, err))
			continue
		}
		// A worker lost under another campaign still lets this one finish,
		// on a reassigned instance whose artifacts differ from a
		// standalone run's.
		if d, re := final.Telemetry[telemetry.CtrWorkerDeaths], final.Telemetry[telemetry.CtrReassignments]; d > 0 || re > 0 {
			r.failures = append(r.failures, fmt.Sprintf("fleet: campaign %s saw %d worker deaths, %d reassignments", st.ID, d, re))
		}
		r.bugs += final.UniqueBugs
		for _, in := range final.Instances {
			r.crashSteps += in.Crashes
		}
		if r.digests[st.ID], err = treeDigest(art); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// fleetCheck compares every campaign's artifact tree with a standalone
// parallel.Run of the same spec, computed once per seed.
func fleetCheck(b *bench, r *repResult) []string {
	var fails []string
	for _, spec := range fleetSpecs(b, r.seed) {
		want, err := b.fleetReference(spec)
		if err != nil {
			fails = append(fails, fmt.Sprintf("fleet reference %s: %v", spec.ID, err))
			continue
		}
		if got, ok := r.digests[spec.ID]; ok && got != want {
			fails = append(fails, fmt.Sprintf("fleet: %s artifacts differ from a standalone run at seed %d", spec.ID, spec.Seed))
		}
	}
	return fails
}

// fleetReference is the artifact digest of a standalone run of spec, as
// the fleet writes it: telemetry on, probing on one worker.
func (b *bench) fleetReference(spec fleet.CampaignSpec) (string, error) {
	key := fmt.Sprintf("%s/%d", spec.ID, spec.Seed)
	if d, ok := b.refs[key]; ok {
		return d, nil
	}
	rec := telemetry.New()
	opts := fleetOptions(spec)
	opts.Telemetry = rec
	res, err := parallel.Run(context.Background(), mustSubject(spec.Subject), opts)
	if err != nil {
		return "", err
	}
	d, err := b.resultDigest(res, rec)
	if err != nil {
		return "", err
	}
	b.refs[key] = d
	return d, nil
}

// resultDigest writes res (and rec's event stream, when set) with the
// campaign package's artifact writers and hashes the tree.
func (b *bench) resultDigest(res *parallel.Result, rec *telemetry.Recorder) (string, error) {
	dir, err := b.tempDir("artifacts")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	if err := campaign.WriteTelemetry(dir, rec); err != nil {
		return "", err
	}
	if err := campaign.WriteArtifacts(dir, res); err != nil {
		return "", err
	}
	return treeDigest(dir)
}
