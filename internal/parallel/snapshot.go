package parallel

import (
	"fmt"

	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/netsim"
	"cmfuzz/internal/subject"
)

// A Snapshot is an instance's complete resumable state: everything a
// step reads that an earlier step could have written. Booting the same
// spec and replaying the instance's history reaches the same state;
// Host.Resume reaches it directly, at a cost proportional to the size
// of the state instead of the age of the campaign.
//
// Random streams are captured as draw counts (see internal/rng): a
// resumed generator is re-seeded from the spec and fast-forwarded,
// which keeps every stream, and so every artifact, byte-identical.
type Snapshot struct {
	Clock        float64
	NextSync     float64
	LatencySpent float64
	// Config is the assignment the instance runs under now, after any
	// configuration mutations; Resume starts the target under it.
	Config       configmodel.Assignment
	Muts         int
	Crashes      int
	RestartFails int
	StartEdges   int
	Saturation   coverage.SaturationState
	RngDraws     uint64 // the configuration-mutation stream
	Engine       fuzz.EngineState
	Net          netsim.NamespaceState
	// Server is the target's subject.State encoding.
	Server []byte
}

// Snapshot captures the instance between steps. It fails with
// subject.ErrNoState when the target cannot capture its server state;
// such an instance can only be rebuilt by replay.
func (in *Instance) Snapshot() (*Snapshot, error) {
	server, err := subject.State(in.target.inst)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Clock:        in.clock,
		NextSync:     in.nextSync,
		LatencySpent: in.latencySpent,
		Config:       in.cfg.Clone(),
		Muts:         in.muts,
		Crashes:      in.crashes,
		RestartFails: in.restartFails,
		StartEdges:   in.startEdges,
		Saturation:   in.sat.State(),
		RngDraws:     in.src.Draws(),
		Engine:       in.engine.State(),
		Net:          in.target.ns.State(),
		Server:       server,
	}, nil
}

// Resume builds the instance spec describes directly in the state s
// captured: it starts the target under s.Config without recording
// startup crashes or coverage (the campaign already has them), hands
// the target its server state, and restores the engine, namespace,
// saturation tracker and mutation stream. No fuzzing session runs.
// The host must be fresh for spec's index, as for Boot.
func (h *Host) Resume(spec InstanceSpec, s *Snapshot) (*Instance, error) {
	ns := h.namespace(spec.Index)
	cfg := s.Config.Clone()
	target, _, err := bootTarget(h.Sub, ns, cfg, &RecordingSink{}, spec.Index)
	if err != nil {
		return nil, fmt.Errorf("parallel: instance %d failed to resume: %w", spec.Index, err)
	}
	if err := subject.SetState(target.inst, s.Server); err != nil {
		target.inst.Close()
		return nil, fmt.Errorf("parallel: instance %d server state: %w", spec.Index, err)
	}
	ns.SetState(s.Net)
	in := h.newInstance(spec, target, cfg)
	if err := in.engine.SetState(s.Engine); err != nil {
		in.Close()
		return nil, fmt.Errorf("parallel: instance %d engine state: %w", spec.Index, err)
	}
	in.clock = s.Clock
	in.nextSync = s.NextSync
	in.latencySpent = s.LatencySpent
	in.muts = s.Muts
	in.crashes = s.Crashes
	in.restartFails = s.RestartFails
	in.startEdges = s.StartEdges
	in.sat.SetState(s.Saturation)
	in.src.Restore(s.RngDraws)
	return in, nil
}
