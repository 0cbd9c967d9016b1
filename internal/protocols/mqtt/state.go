package mqtt

import (
	"errors"

	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

// errBadState reports a SetState payload State did not produce.
var errBadState = errors.New("mqtt: malformed state")

var _ subject.Stateful = (*Broker)(nil)

// State implements subject.Stateful: persistent client sessions,
// retained messages and the broker's connection counter outlive the
// connection that created them. A second CONNECT on one connection
// files the same session under a second client id, so sessions are
// encoded once each and the id map refers to them by number.
func (b *Broker) State() ([]byte, error) {
	w := &wire.Writer{}
	ids := probes.SortedKeys(b.sessions)
	num := make(map[*session]int, len(ids))
	var order []*session
	for _, id := range ids {
		if s := b.sessions[id]; num[s] == 0 {
			order = append(order, s)
			num[s] = len(order)
		}
	}
	w.U32(uint32(len(order)))
	for _, s := range order {
		putSession(w, s)
	}
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.String32(id)
		w.U32(uint32(num[b.sessions[id]] - 1))
	}
	w.U32(uint32(len(b.topics)))
	for _, topic := range b.topics {
		p := b.retained[topic]
		w.String32(topic)
		w.U16(p.PacketID)
		w.Bytes32(p.Payload)
		w.U8(p.QoS)
		putFlag(w, p.Retain)
		putFlag(w, p.Dup)
	}
	w.U64(uint64(b.connects))
	return w.Bytes(), nil
}

// SetState implements subject.Stateful.
func (b *Broker) SetState(state []byte) error {
	r := wire.NewReader(state)
	var order []*session
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		order = append(order, getSession(r))
	}
	sessions := make(map[string]*session)
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		id := r.String32()
		k := int(r.U32())
		if k >= len(order) {
			return errBadState
		}
		sessions[id] = order[k]
	}
	retained := make(map[string]publishPacket)
	var topics []string
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		p := publishPacket{Topic: r.String32(), PacketID: r.U16(), Payload: append([]byte(nil), r.Bytes32()...),
			QoS: r.U8(), Retain: getFlag(r), Dup: getFlag(r)}
		if len(topics) > 0 && p.Topic <= topics[len(topics)-1] {
			return errBadState // topics are stored sorted and distinct
		}
		retained[p.Topic] = p
		topics = append(topics, p.Topic)
	}
	connects := int(r.U64())
	if r.Err() != nil || r.Remaining() != 0 {
		return errBadState
	}
	b.sessions, b.retained, b.topics, b.connects = sessions, retained, topics, connects
	b.cur = nil
	return nil
}

func putSession(w *wire.Writer, s *session) {
	w.String32(s.clientID)
	putFlag(w, s.connected)
	putFlag(w, s.clean)
	putFlag(w, s.authed)
	w.U32(uint32(len(s.subs)))
	for _, f := range probes.SortedKeys(s.subs) {
		w.String32(f)
		w.U8(s.subs[f])
	}
	putInflight(w, s.inflightIn)
	putInflight(w, s.inflightOut)
	putFlag(w, s.will != nil)
	if s.will != nil {
		w.String32(s.will.topic)
		w.Bytes32(s.will.payload)
		w.U8(s.will.qos)
		putFlag(w, s.will.retain)
	}
}

func getSession(r *wire.Reader) *session {
	s := newSession()
	s.clientID = r.String32()
	s.connected = getFlag(r)
	s.clean = getFlag(r)
	s.authed = getFlag(r)
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		f := r.String32()
		s.subs[f] = r.U8()
	}
	getInflight(r, s.inflightIn)
	getInflight(r, s.inflightOut)
	if getFlag(r) {
		s.will = &willInfo{topic: r.String32(), payload: append([]byte(nil), r.Bytes32()...), qos: r.U8(), retain: getFlag(r)}
	}
	return s
}

func putInflight(w *wire.Writer, m map[uint16]byte) {
	w.U32(uint32(len(m)))
	for _, id := range probes.SortedKeys(m) {
		w.U16(id)
		w.U8(m[id])
	}
}

func getInflight(r *wire.Reader, m map[uint16]byte) {
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		id := r.U16()
		m[id] = r.U8()
	}
}

func putFlag(w *wire.Writer, b bool) {
	if b {
		w.U8(1)
		return
	}
	w.U8(0)
}

func getFlag(r *wire.Reader) bool { return r.U8() != 0 }
