package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"syscall"
	"time"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/live"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry/trace"
	"cmfuzz/internal/wire"
)

// WorkerConfig parameterizes a worker node.
type WorkerConfig struct {
	// Name identifies the worker in coordinator logs and metrics.
	Name string
	// Resolve maps the subject name carried in the Assign message to a
	// local subject implementation. Both sides must resolve the same
	// name to behaviorally identical subjects or determinism is lost.
	Resolve func(name string) (subject.Subject, error)
}

// A Worker owns whole campaign instances — engine, booted target,
// mutation RNG, saturation tracker — and executes RPCs from the
// coordinator. It runs the identical per-instance code the in-process
// campaign uses; only the global bookkeeping lives on the coordinator.
// Between scheduler touchpoints it executes whole leases autonomously:
// import seeds, step until the boundary, stream every record back in
// one reply.
//
// Every instance-addressed message carries a campaign id, and the
// worker keeps an independent context per campaign, so one connection
// can serve many concurrent campaigns (the fleet service) — a Release
// retires one campaign's instances without disturbing the others.
type Worker struct {
	cfg      WorkerConfig
	camps    map[uint32]*workerCampaign
	fw       frameWriter // reusable frame scratch (Serve is single-threaded)
	enc      wire.Writer // reusable lease-reply encoder
	deltaBuf []byte      // reusable delta scratch; valid per step, copied into enc
}

// workerCampaign is one campaign's worker-side state: the assigned plan
// plus whatever instances this worker has booted for it.
type workerCampaign struct {
	host     *parallel.Host
	opts     parallel.Options
	specs    map[int]parallel.InstanceSpec
	insts    map[int]*parallel.Instance
	reported map[int]*repState // coverage already flushed to the coordinator
	// tracer collects this campaign's lease spans when the Assign asked
	// for tracing (nil otherwise). Per campaign, not per worker, so one
	// connection hosting many fleet campaigns never mixes their spans.
	// Serve is single-threaded, so every span is ended before the
	// reply's DrainRecords and the drain is always complete.
	tracer *trace.Tracer
}

func (wc *workerCampaign) closeInstances() {
	for _, in := range wc.insts {
		in.Close()
	}
	wc.insts = map[int]*parallel.Instance{}
}

// repState tracks what coverage an instance has already shipped. The
// mirror map stays equal to the engine map between new-edges steps, so
// a step's delta normally needs to visit only the words that step's
// trace touched; fullScan flags the one exception — a mutation restart
// absorbed startup coverage outside any step, so the next delta must
// diff the whole engine map again.
type repState struct {
	m        *coverage.Map
	fullScan bool
}

// NewWorker returns a worker ready to Serve a coordinator connection.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg}
}

// isDisconnect reports whether err is one of the shapes an abrupt peer
// disconnect takes: clean EOF, EOF mid-frame (coordinator died between
// header and payload), or local/remote teardown of the socket. A worker
// that outlives its coordinator should exit cleanly, not with a
// confusing transport error after a healthy campaign.
func isDisconnect(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	// Pre-go1.16 teardown surfaces as a bare *net.OpError string.
	return strings.Contains(err.Error(), "use of closed network connection")
}

// Serve runs the worker protocol over conn until the coordinator sends
// Shutdown or the connection drops. It sends the Hello immediately, so
// the coordinator's accept path can complete the handshake. Abrupt
// disconnects (coordinator death, conn teardown) exit cleanly after
// instances are closed.
func (w *Worker) Serve(conn net.Conn) error {
	defer conn.Close()
	defer w.closeInstances()
	if err := w.fw.write(conn, msgHello, encodeHello(hello{Name: w.cfg.Name, Version: protocolVersion})); err != nil {
		if isDisconnect(err) {
			return nil
		}
		return err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, _, err := readFrame(br)
	if err != nil {
		if isDisconnect(err) {
			return nil
		}
		return err
	}
	if typ != msgWelcome {
		return fmt.Errorf("dist: worker handshake: got message %d, want Welcome", typ)
	}
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			if isDisconnect(err) {
				return nil
			}
			return err
		}
		if typ == msgShutdown {
			return nil
		}
		rtyp, reply, herr := w.handle(typ, payload)
		if herr != nil {
			// Report the failure; the coordinator decides whether the
			// campaign survives. The protocol stream stays aligned
			// because every request still gets exactly one reply.
			if werr := w.fw.write(conn, msgError, []byte(herr.Error())); werr != nil {
				if isDisconnect(werr) {
					return nil
				}
				return werr
			}
			continue
		}
		if err := w.fw.write(conn, rtyp, reply); err != nil {
			if isDisconnect(err) {
				return nil
			}
			return err
		}
	}
}

func (w *Worker) closeInstances() {
	for _, wc := range w.camps {
		wc.closeInstances()
	}
}

func (w *Worker) campaign(id uint32) *workerCampaign {
	if w.camps == nil {
		return nil
	}
	return w.camps[id]
}

func (w *Worker) handle(typ byte, payload []byte) (byte, []byte, error) {
	switch typ {
	case msgPing:
		return msgPong, nil, nil

	case msgAssign:
		a, err := decodeAssign(payload)
		if err != nil {
			return 0, nil, err
		}
		var sub subject.Subject
		if a.LiveSpec != "" {
			// Live target: the spec travels inline, so any worker can
			// spawn and drive the external server locally.
			sub, err = live.SubjectFromJSON(a.LiveSpec)
			if err != nil {
				return 0, nil, fmt.Errorf("dist: live spec: %w", err)
			}
		} else {
			if w.cfg.Resolve == nil {
				return 0, nil, errors.New("dist: worker has no subject resolver")
			}
			sub, err = w.cfg.Resolve(a.Subject)
			if err != nil {
				return 0, nil, fmt.Errorf("dist: resolve subject %q: %w", a.Subject, err)
			}
		}
		host, err := parallel.NewHost(sub, a.Opts)
		if err != nil {
			return 0, nil, err
		}
		// A re-Assign of the same campaign replaces its instance map;
		// close what the previous assignment booted first or its live
		// targets leak. Other campaigns on the connection are untouched.
		if prev := w.campaign(a.Campaign); prev != nil {
			prev.closeInstances()
		}
		if w.camps == nil {
			w.camps = make(map[uint32]*workerCampaign)
		}
		wc := &workerCampaign{
			host:     host,
			opts:     host.Opts,
			specs:    make(map[int]parallel.InstanceSpec, len(a.Specs)),
			insts:    make(map[int]*parallel.Instance),
			reported: make(map[int]*repState),
		}
		if a.Trace {
			wc.tracer = trace.New()
		}
		for _, s := range a.Specs {
			wc.specs[s.Index] = s
		}
		w.camps[a.Campaign] = wc
		return msgAssignOK, nil, nil

	case msgRelease:
		id, err := decodeRelease(payload)
		if err != nil {
			return 0, nil, err
		}
		// Releasing an unknown campaign is fine: release is idempotent
		// and the coordinator sends it best-effort during teardown.
		if wc := w.campaign(id); wc != nil {
			wc.closeInstances()
			delete(w.camps, id)
		}
		return msgReleaseOK, nil, nil

	case msgBoot:
		b, err := decodeBootReq(payload)
		if err != nil {
			return 0, nil, err
		}
		wc := w.campaign(b.Campaign)
		if wc == nil {
			return 0, nil, fmt.Errorf("dist: boot for unassigned campaign %d", b.Campaign)
		}
		spec, ok := wc.specs[b.Index]
		if !ok {
			return 0, nil, fmt.Errorf("dist: boot for unassigned instance %d", b.Index)
		}
		if len(b.Snapshot) > 0 {
			return w.resume(wc, spec, b.Snapshot)
		}
		sink := &parallel.RecordingSink{}
		in, err := wc.host.Boot(spec, sink)
		if err != nil {
			return msgBootResult, encodeBootResult(bootResult{Err: err.Error(), Crashes: sink.Recs}), nil
		}
		in.SetClock(b.ResumeClock)
		wc.insts[b.Index] = in
		// The boot delta carries the full startup map (delta against
		// nothing); from here on only new words travel.
		delta := coverage.EncodeDelta(in.CoverageMap(), nil)
		rep := coverage.NewMap()
		rep.Union(in.CoverageMap())
		wc.reported[b.Index] = &repState{m: rep}
		return msgBootResult, encodeBootResult(bootResult{
			Config:     in.ConfigString(),
			StartEdges: in.StartupEdges(),
			Delta:      delta,
			Crashes:    sink.Recs,
		}), nil

	case msgLease:
		decStart := time.Now()
		l, err := decodeLease(payload)
		if err != nil {
			return 0, nil, err
		}
		wc := w.campaign(l.Campaign)
		if wc == nil {
			return 0, nil, fmt.Errorf("dist: lease for unassigned campaign %d", l.Campaign)
		}
		in := wc.insts[l.Index]
		if in == nil {
			return 0, nil, fmt.Errorf("dist: lease for unbooted instance %d", l.Index)
		}
		// Worker-side lease spans (no-ops when tracing is off): the root
		// covers the whole handler, with decode backfilled via Complete
		// since it ran before the root could open.
		tr := wc.tracer
		root := tr.Start("lease", trace.A("instance", l.Index))
		now := tr.Now()
		root.Complete("lease.decode", now-time.Since(decStart), now, trace.A("bytes", len(payload)))
		if len(l.Seeds) > 0 {
			absorb := root.Child("corpus.absorb", trace.A("seeds", len(l.Seeds)))
			in.ImportSeeds(l.Seeds)
			absorb.End()
		}
		rep := wc.reported[l.Index]
		w.enc.Reset()
		// afterStep fires before any mutation absorbs restart coverage,
		// which is where the in-process loop unions into the global map
		// — the delta must be snapshotted there, so a restart's startup
		// coverage rides the NEXT new-edges delta exactly as it does
		// in-process. Normally rep.m equals the engine map going into
		// the step, so the delta lives entirely in words the step's own
		// trace touched and the encoder can skip the full-map scan; a
		// preceding restart breaks that equality and forces one full
		// diff (the fullScan flag, set when a saturation event fires).
		afterStep := func(rec *parallel.LeaseStep) {
			if rec.NewEdges > 0 {
				em := in.CoverageMap()
				touched := in.TraceMap()
				if rep.fullScan {
					touched = nil
					rep.fullScan = false
				}
				w.deltaBuf = coverage.AppendDelta(w.deltaBuf[:0], em, rep.m, touched)
				rec.Delta = w.deltaBuf
				rep.m.ApplyDelta(rec.Delta)
			}
		}
		records := 0
		afterRecord := func(rec *parallel.LeaseStep) {
			if rec.SatFired {
				rep.fullScan = true
			}
			records++
			appendLeaseStep(&w.enc, rec)
		}
		steps := root.Child("lease.steps")
		syncDue := in.StepN(l.Boundary, l.Horizon, afterStep, afterRecord)
		steps.Set("records", records)
		steps.End()
		encStart := tr.Now()
		w.enc.U8(leaseEnd)
		putBool(&w.enc, syncDue)
		root.Complete("lease.encode", encStart, tr.Now())
		root.End()
		// The span section rides after the terminator: everything above
		// has ended, so the drain is complete and the reply carries this
		// lease's whole span tree (plus the worker clock for alignment).
		putSpanRecords(&w.enc, tr.DrainRecords(), tr.Now())
		if l.Snapshot {
			snap, err := wc.snapshot(l.Index)
			if err != nil {
				return 0, nil, err
			}
			appendSnapshot(&w.enc, snap)
		}
		return msgLeaseResult, w.enc.Bytes(), nil

	case msgSnapshot:
		q, err := decodeIndexReq(payload)
		if err != nil {
			return 0, nil, err
		}
		wc := w.campaign(q.Campaign)
		if wc == nil {
			return 0, nil, fmt.Errorf("dist: snapshot for unassigned campaign %d", q.Campaign)
		}
		snap, err := wc.snapshot(q.Index)
		if err != nil {
			return 0, nil, err
		}
		return msgSnapshotResult, snap, nil

	case msgFinalize:
		f, err := decodeIndexReq(payload)
		if err != nil {
			return 0, nil, err
		}
		wc := w.campaign(f.Campaign)
		if wc == nil {
			return 0, nil, fmt.Errorf("dist: finalize for unassigned campaign %d", f.Campaign)
		}
		in := wc.insts[f.Index]
		if in == nil {
			return 0, nil, fmt.Errorf("dist: finalize for unbooted instance %d", f.Index)
		}
		return msgInstanceResult, encodeInstanceResult(in.Result()), nil

	default:
		return 0, nil, fmt.Errorf("dist: unexpected message type %d", typ)
	}
}

// snapshot encodes instance i's state for a checkpoint. It returns no
// bytes, which tells the coordinator to keep replaying, when the target
// cannot capture its state.
func (wc *workerCampaign) snapshot(i int) ([]byte, error) {
	in := wc.insts[i]
	if in == nil {
		return nil, fmt.Errorf("dist: snapshot of unbooted instance %d", i)
	}
	snap, err := in.Snapshot()
	if errors.Is(err, subject.ErrNoState) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	rep := wc.reported[i]
	out := &snapshot{inst: snap, fullScan: rep.fullScan}
	// The reported map only ever gains engine-map words, so equal
	// counts mean equal maps.
	if rep.m.Count() != in.Coverage() {
		out.reported = coverage.EncodeDelta(rep.m, nil)
	}
	return encodeSnapshot(out), nil
}

// resume boots an instance straight from a checkpointed snapshot. The
// reply carries no startup crashes or coverage: the checkpoint that
// held the snapshot already accounts for them.
func (w *Worker) resume(wc *workerCampaign, spec parallel.InstanceSpec, data []byte) (byte, []byte, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return 0, nil, err
	}
	in, err := wc.host.Resume(spec, snap.inst)
	if err != nil {
		return msgBootResult, encodeBootResult(bootResult{Err: err.Error()}), nil
	}
	rep := coverage.NewMap()
	if snap.reported != nil {
		rep.ApplyDelta(snap.reported) // validated by decodeSnapshot
	} else {
		rep.Union(in.CoverageMap())
	}
	wc.insts[spec.Index] = in
	wc.reported[spec.Index] = &repState{m: rep, fullScan: snap.fullScan}
	return msgBootResult, encodeBootResult(bootResult{
		Config:     in.ConfigString(),
		StartEdges: in.StartupEdges(),
	}), nil
}

// Dial connects to a coordinator at addr, retrying with jittered
// exponential backoff: each failed attempt doubles the base delay (50ms
// up to 5s) and adds up to 100% jitter, so a fleet of workers restarted
// together does not stampede the coordinator.
func Dial(addr string, attempts int, seed int64) (net.Conn, error) {
	if attempts <= 0 {
		attempts = 1
	}
	rng := rand.New(rand.NewSource(seed))
	backoff := 50 * time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if i == attempts-1 {
			break
		}
		time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
	return nil, fmt.Errorf("dist: dial %s after %d attempts: %w", addr, attempts, lastErr)
}
