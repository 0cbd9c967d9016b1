package dist

import (
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/netsim"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/wire"
)

// A snapshot is one worker-side instance captured for a checkpoint:
// the instance's own state plus the worker's record of which coverage
// it has already reported to the coordinator (repState), which decides
// what the next lease's deltas carry.
type snapshot struct {
	inst *parallel.Snapshot
	// reported is coverage.EncodeDelta of repState.m, or nil when that
	// map equals the engine's (all but a mutation restart's fresh
	// startup coverage is reported as soon as it is found).
	reported []byte
	fullScan bool
}

func encodeSnapshot(s *snapshot) []byte {
	in := s.inst
	// Size the buffer up front: snapshots run to hundreds of KB, and
	// growing by doubling would leave as much again behind as garbage.
	size := 256 + len(in.Engine.Coverage) + len(s.reported) + len(in.Server)
	for _, seed := range in.Engine.Corpus {
		size += 6
		for _, m := range seed.Msgs {
			size += 4 + len(m)
		}
	}
	w := wire.NewWriter(size)
	putF64(w, in.Clock)
	putF64(w, in.NextSync)
	putF64(w, in.LatencySpent)
	putAssignment(w, in.Config)
	w.U32(uint32(in.Muts))
	w.U32(uint32(in.Crashes))
	w.U32(uint32(in.RestartFails))
	w.U32(uint32(in.StartEdges))
	putF64(w, in.Saturation.LastGain)
	putI64(w, int64(in.Saturation.LastCount))
	putBool(w, in.Saturation.Started)
	w.U64(in.RngDraws)

	eng := &in.Engine
	w.Bytes32(eng.Coverage)
	w.U32(uint32(len(eng.Corpus)))
	for _, seed := range eng.Corpus {
		putSeed(w, seed)
	}
	putI64(w, int64(eng.Stats.Execs))
	putI64(w, int64(eng.Stats.Crashes))
	putI64(w, eng.Stats.BytesSent)
	w.U64(eng.Draws)

	net := &in.Net
	putI64(w, int64(net.Stats.DatagramsSent))
	putI64(w, int64(net.Stats.DatagramsDropped))
	putI64(w, int64(net.Stats.DatagramsDelivered))
	putI64(w, int64(net.Stats.SegmentsDelivered))
	putI64(w, int64(net.Stats.ConnsOpened))
	putF64(w, net.Stats.LatencyAccrued)
	putI64(w, int64(net.NextConn))
	w.U64(net.LossDraws)
	w.U64(net.LatDraws)

	w.Bytes32(in.Server)
	putBool(w, s.reported != nil)
	if s.reported != nil {
		w.Bytes32(s.reported)
	}
	putBool(w, s.fullScan)
	return w.Bytes()
}

// decodeSnapshot parses a snapshot. It checks structure only; whether
// the state fits the instance is Host.Resume's to find out. Every
// collection grows by appending as its entries parse, so allocation
// stays proportional to the input whatever counts it claims.
func decodeSnapshot(data []byte) (*snapshot, error) {
	r := wire.NewReader(data)
	in := &parallel.Snapshot{
		Clock:        getF64(r),
		NextSync:     getF64(r),
		LatencySpent: getF64(r),
		Config:       getAssignment(r),
		Muts:         int(r.U32()),
		Crashes:      int(r.U32()),
		RestartFails: int(r.U32()),
		StartEdges:   int(r.U32()),
		Saturation: coverage.SaturationState{
			LastGain:  getF64(r),
			LastCount: int(getI64(r)),
			Started:   getBool(r),
		},
		RngDraws: r.U64(),
	}
	in.Engine.Coverage = r.Bytes32()
	nseeds := int(r.U32())
	for i := 0; i < nseeds && r.Err() == nil; i++ {
		in.Engine.Corpus = append(in.Engine.Corpus, getSeed(r))
	}
	in.Engine.Stats = fuzz.Stats{Execs: int(getI64(r)), Crashes: int(getI64(r)), BytesSent: getI64(r)}
	in.Engine.Draws = r.U64()
	in.Net = netsim.NamespaceState{
		Stats: netsim.Stats{
			DatagramsSent:      int(getI64(r)),
			DatagramsDropped:   int(getI64(r)),
			DatagramsDelivered: int(getI64(r)),
			SegmentsDelivered:  int(getI64(r)),
			ConnsOpened:        int(getI64(r)),
			LatencyAccrued:     getF64(r),
		},
		NextConn:  int(getI64(r)),
		LossDraws: r.U64(),
		LatDraws:  r.U64(),
	}
	in.Server = r.Bytes32()
	s := &snapshot{inst: in}
	if getBool(r) {
		s.reported = r.Bytes32()
	}
	s.fullScan = getBool(r)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if !r.Empty() {
		return nil, ErrProto
	}
	for _, delta := range [][]byte{in.Engine.Coverage, s.reported} {
		if _, err := coverage.NewMap().ApplyDelta(delta); err != nil {
			return nil, err
		}
	}
	return s, nil
}
