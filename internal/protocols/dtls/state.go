package dtls

import (
	"errors"

	"cmfuzz/internal/subject"
)

var _ subject.Stateful = (*Server)(nil)

// State implements subject.Stateful. A DTLS endpoint keeps nothing
// across sessions: NewSession resets the handshake state and epoch.
func (s *Server) State() ([]byte, error) { return []byte{}, nil }

// SetState implements subject.Stateful; the only valid state is empty.
func (s *Server) SetState(state []byte) error {
	if len(state) != 0 {
		return errors.New("dtls: malformed state")
	}
	return nil
}
