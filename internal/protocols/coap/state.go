package coap

import (
	"errors"

	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

var _ subject.Stateful = (*Server)(nil)

// State implements subject.Stateful: stored resources and observer
// registrations persist across client exchanges; blockwise uploads are
// per session.
func (s *Server) State() ([]byte, error) {
	w := &wire.Writer{}
	w.U32(uint32(len(s.resources)))
	for _, path := range probes.SortedKeys(s.resources) {
		w.String32(path)
		w.Bytes32(s.resources[path])
	}
	w.U32(uint32(len(s.observers)))
	for _, path := range probes.SortedKeys(s.observers) {
		w.String32(path)
		w.U64(uint64(s.observers[path]))
	}
	return w.Bytes(), nil
}

// SetState implements subject.Stateful.
func (s *Server) SetState(state []byte) error {
	r := wire.NewReader(state)
	resources := make(map[string][]byte)
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		path := r.String32()
		resources[path] = append([]byte(nil), r.Bytes32()...)
	}
	observers := make(map[string]int)
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		path := r.String32()
		observers[path] = int(r.U64())
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return errors.New("coap: malformed state")
	}
	s.resources, s.observers = resources, observers
	return nil
}
