package main

import (
	"sync"
	"sync/atomic"
	"time"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/subject"
)

// A counter set measures the protocols layer from outside: it wraps a
// subject.Subject so every instance the campaign boots reports its
// Start, NewSession and Message calls here. The counters are atomic
// because distributed workers run instances on several goroutines; the
// wrapper itself never allocates on the Message path, and a panicking
// Message (a seeded defect firing) still propagates to the caller after
// being counted.
type counters struct {
	starts     atomic.Int64
	startNanos atomic.Int64
	sessions   atomic.Int64
	msgs       atomic.Int64
	msgNanos   atomic.Int64
	crashes    atomic.Int64

	sample *msgSample
}

// A counts value is a plain snapshot of a counter set.
type counts struct {
	starts, startNanos, sessions, msgs, msgNanos, crashes int64
}

func (c *counters) snapshot() counts {
	return counts{
		starts:     c.starts.Load(),
		startNanos: c.startNanos.Load(),
		sessions:   c.sessions.Load(),
		msgs:       c.msgs.Load(),
		msgNanos:   c.msgNanos.Load(),
		crashes:    c.crashes.Load(),
	}
}

func (a counts) plus(b counts) counts {
	return counts{a.starts + b.starts, a.startNanos + b.startNanos, a.sessions + b.sessions,
		a.msgs + b.msgs, a.msgNanos + b.msgNanos, a.crashes + b.crashes}
}

// countingSubject is a subject.Subject whose instances report to c.
type countingSubject struct {
	subject.Subject
	c *counters
}

func (s countingSubject) NewInstance() subject.Instance {
	return &countingInstance{Instance: s.Subject.NewInstance(), c: s.c}
}

type countingInstance struct {
	subject.Instance
	c *counters
}

func (i *countingInstance) Start(cfg map[string]string, tr *coverage.Trace) error {
	t0 := time.Now()
	defer func() {
		i.c.starts.Add(1)
		i.c.startNanos.Add(int64(time.Since(t0)))
	}()
	return i.Instance.Start(cfg, tr)
}

func (i *countingInstance) NewSession() {
	i.c.sessions.Add(1)
	i.Instance.NewSession()
}

func (i *countingInstance) Message(payload []byte) [][]byte {
	t0 := time.Now()
	returned := false
	defer func() {
		i.c.msgNanos.Add(int64(time.Since(t0)))
		n := i.c.msgs.Add(1)
		if !returned {
			i.c.crashes.Add(1)
		}
		i.c.sample.offer(n, i.c.sessions.Load(), payload)
	}()
	out := i.Instance.Message(payload)
	returned = true
	return out
}

// A msgSample keeps a bounded, evenly strided sample of the messages a
// campaign sent, copied into storage allocated up front so sampling
// adds no allocation to the measured path. The netsim ladder replays
// it. A nil sample records nothing.
type msgSample struct {
	stride int64

	mu    sync.Mutex
	arena []byte
	msgs  []sampledMsg
}

// A sampledMsg is one sampled message and the session it was sent in,
// so a replay can open sessions where the campaign did.
type sampledMsg struct {
	session int64
	off, n  int
}

func newMsgSample(stride int64, maxMsgs, maxBytes int) *msgSample {
	return &msgSample{stride: stride, arena: make([]byte, 0, maxBytes), msgs: make([]sampledMsg, 0, maxMsgs)}
}

func (s *msgSample) offer(n, session int64, payload []byte) {
	if s == nil || n%s.stride != 0 {
		return
	}
	s.mu.Lock()
	if len(s.msgs) < cap(s.msgs) && len(s.arena)+len(payload) <= cap(s.arena) {
		s.msgs = append(s.msgs, sampledMsg{session: session, off: len(s.arena), n: len(payload)})
		s.arena = append(s.arena, payload...)
	}
	s.mu.Unlock()
}

// sessions returns the sampled payloads grouped into sessions, in the
// order they were sent.
func (s *msgSample) sessions() [][][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][][]byte
	last := int64(-1)
	for _, m := range s.msgs {
		if m.session != last || len(out) == 0 {
			out = append(out, nil)
			last = m.session
		}
		out[len(out)-1] = append(out[len(out)-1], s.arena[m.off:m.off+m.n])
	}
	return out
}
