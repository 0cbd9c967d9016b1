package amqp

import (
	"errors"

	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

var _ subject.Stateful = (*Broker)(nil)

// State implements subject.Stateful: queue depths outlive the
// connection that filled them; sessions and links do not.
func (b *Broker) State() ([]byte, error) {
	w := &wire.Writer{}
	w.U32(uint32(len(b.queues)))
	for _, q := range probes.SortedKeys(b.queues) {
		w.String32(q)
		w.U64(uint64(b.queues[q]))
	}
	return w.Bytes(), nil
}

// SetState implements subject.Stateful.
func (b *Broker) SetState(state []byte) error {
	r := wire.NewReader(state)
	n := int(r.U32())
	queues := make(map[string]int)
	for i := 0; i < n && r.Err() == nil; i++ {
		q := r.String32()
		queues[q] = int(r.U64())
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return errors.New("amqp: malformed state")
	}
	b.queues = queues
	return nil
}
