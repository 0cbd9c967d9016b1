package dns

import (
	"errors"

	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

// errBadState reports a SetState payload State did not produce.
var errBadState = errors.New("dns: malformed state")

var _ subject.Stateful = (*Server)(nil)

// State implements subject.Stateful: the answer cache is the only
// thing one query leaves behind for the next.
func (s *Server) State() ([]byte, error) {
	w := &wire.Writer{}
	w.U32(uint32(len(s.cache)))
	for _, key := range probes.SortedKeys(s.cache) {
		rec := s.cache[key]
		w.String32(key)
		w.String32(rec.Name)
		w.U16(rec.Type)
		w.U16(rec.Class)
		w.U32(rec.TTL)
		w.Bytes32(rec.Data)
	}
	return w.Bytes(), nil
}

// SetState implements subject.Stateful.
func (s *Server) SetState(state []byte) error {
	r := wire.NewReader(state)
	n := int(r.U32())
	cache := make(map[string]record)
	for i := 0; i < n && r.Err() == nil; i++ {
		key := r.String32()
		cache[key] = record{Name: r.String32(), Type: r.U16(), Class: r.U16(), TTL: r.U32(),
			Data: append([]byte(nil), r.Bytes32()...)}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return errBadState
	}
	s.cache = cache
	return nil
}
