package dds

import (
	"errors"

	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

var _ subject.Stateful = (*Node)(nil)

// State implements subject.Stateful: discovered participants and the
// reliable readers' acknowledged sequence numbers persist across
// sessions; fragment reassembly is per session.
func (n *Node) State() ([]byte, error) {
	w := &wire.Writer{}
	w.U32(uint32(len(n.participants)))
	for _, guid := range probes.SortedKeys(n.participants) {
		w.U64(guid)
		w.U64(n.participants[guid].lastSeq)
	}
	w.U32(uint32(len(n.readers)))
	for _, id := range probes.SortedKeys(n.readers) {
		w.U32(id)
		w.U64(n.readers[id])
	}
	return w.Bytes(), nil
}

// SetState implements subject.Stateful.
func (n *Node) SetState(state []byte) error {
	r := wire.NewReader(state)
	participants := make(map[uint64]*participant)
	for i, k := 0, int(r.U32()); i < k && r.Err() == nil; i++ {
		guid := r.U64()
		participants[guid] = &participant{lastSeq: r.U64()}
	}
	readers := make(map[uint32]uint64)
	for i, k := 0, int(r.U32()); i < k && r.Err() == nil; i++ {
		id := r.U32()
		readers[id] = r.U64()
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return errors.New("dds: malformed state")
	}
	n.participants, n.readers = participants, readers
	return nil
}
