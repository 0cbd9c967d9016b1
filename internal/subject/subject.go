// Package subject defines the contract between CMFuzz and the protocol
// implementations under test. A Subject describes one IoT protocol
// implementation: where its configuration lives (CLI help, config files),
// its Pit data/state models, and how to boot instrumented instances.
//
// An Instance is one booted server. Start parses and applies a concrete
// configuration while reporting startup coverage — the lightweight proxy
// CMFuzz uses to quantify configuration relations (paper §III-B1) — and
// fails for conflicting configurations. Message feeds one client packet
// through the implementation, which reports branch coverage through the
// trace installed with SetTrace and panics with *bugs.Crash when a seeded
// defect fires. A Stateful instance also captures and restores what one
// session leaves behind for the next, so a campaign can move it without
// replaying its history.
package subject

import (
	"errors"
	"reflect"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
)

// Transport is how clients reach the protocol.
type Transport int

// The transports used by the six subjects.
const (
	Stream   Transport = iota // TCP-like (MQTT, AMQP)
	Datagram                  // UDP-like (CoAP, DTLS, DNS, DDS/RTPS)
)

// String names the transport.
func (t Transport) String() string {
	if t == Datagram {
		return "datagram"
	}
	return "stream"
}

// Info identifies a subject the way the paper's tables do.
type Info struct {
	// Protocol is the protocol name ("MQTT", "CoAP", ...), matching the
	// bugs.Table2 Protocol column.
	Protocol string
	// Implementation is the modeled implementation ("Mosquitto", ...).
	Implementation string
	// Transport is the client-facing transport.
	Transport Transport
	// Port is the conventional server port.
	Port uint16
}

// An Instance is one booted, instrumented protocol server.
type Instance interface {
	// Start applies cfg, reporting startup coverage into tr. It returns
	// an error (with no residual coverage guarantees) for conflicting or
	// invalid configurations.
	Start(cfg map[string]string, tr *coverage.Trace) error
	// SetTrace redirects subsequent message-handling coverage into tr.
	// The fuzzing loop installs a fresh trace per execution.
	SetTrace(tr *coverage.Trace)
	// NewSession begins a fresh client session (new connection/exchange
	// context), discarding per-session state.
	NewSession()
	// Message handles one inbound packet and returns response packets.
	// Seeded defects panic with *bugs.Crash.
	Message(payload []byte) [][]byte
	// Close releases the instance.
	Close()
}

// A Stateful instance can capture and restore its cross-session state:
// whatever one session leaves behind for the next (caches, retained
// messages, registrations), but not the configuration Start applied.
// Campaigns move a Stateful instance by snapshot; any other instance is
// rebuilt by replaying its history. It is a separate interface so that
// Instance implementations written without it keep compiling.
type Stateful interface {
	// State encodes the cross-session state. It is called between
	// sessions only, and equal states must encode to equal bytes. An
	// instance whose state is out of reach (an external process, say)
	// returns ErrNoState.
	State() ([]byte, error)
	// SetState restores a State encoding into an instance freshly
	// Started under the configuration the state was captured with. The
	// sessions that follow must behave exactly as they would have on
	// the captured instance.
	SetState(state []byte) error
}

// ErrNoState is what State returns when an instance's cross-session
// state cannot be captured. Callers fall back to rebuilding the
// instance by replaying its history.
var ErrNoState = errors.New("subject: instance state cannot be captured")

// State captures inst's cross-session state through Stateful, or fails
// with ErrNoState when inst cannot capture it.
func State(inst Instance) ([]byte, error) {
	s := stateful(inst)
	if s == nil {
		return nil, ErrNoState
	}
	return s.State()
}

// SetState restores a State encoding into inst; see Stateful.SetState.
func SetState(inst Instance, state []byte) error {
	s := stateful(inst)
	if s == nil {
		return ErrNoState
	}
	return s.SetState(state)
}

var instanceType = reflect.TypeOf((*Instance)(nil)).Elem()

// stateful finds the Stateful behind inst. A wrapper struct that embeds
// an Instance (counting or tracing wrappers, typically) and does not
// implement Stateful itself forwards to the embedded instance, just as
// Go would promote the two methods if they were part of Instance.
func stateful(inst Instance) Stateful {
	for inst != nil {
		if s, ok := inst.(Stateful); ok {
			return s
		}
		v := reflect.ValueOf(inst)
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return nil
			}
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return nil
		}
		inst = nil
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Anonymous && f.IsExported() && f.Type == instanceType {
				inst, _ = v.Field(i).Interface().(Instance)
				break
			}
		}
	}
	return nil
}

// A Subject is one protocol implementation under test.
type Subject interface {
	// Info identifies the subject.
	Info() Info
	// ConfigInput returns the configuration sources (CLI help text and
	// configuration files) that Algorithm 1 extracts items from.
	ConfigInput() configspec.Input
	// PitXML returns the Pit document with the subject's data and state
	// models (the same Pit is shared by all fuzzers, as in the paper).
	PitXML() string
	// NewInstance returns an unstarted instance.
	NewInstance() Instance
}

// Probe boots a throwaway instance under cfg and returns its startup
// branch coverage — the relation-quantification oracle. Conflicting
// configurations report 0.
func Probe(s Subject, cfg map[string]string) int {
	inst := s.NewInstance()
	defer inst.Close()
	tr := coverage.NewTrace()
	if err := inst.Start(cfg, tr); err != nil {
		return 0
	}
	return tr.Count()
}

// Target adapts an instance to the fuzzing engine: each Run installs the
// per-execution trace, opens a fresh session, and converts seeded-defect
// panics into crash values.
type Target struct {
	inst Instance
}

// NewTarget wraps a started instance.
func NewTarget(inst Instance) *Target { return &Target{inst: inst} }

// Run implements fuzz.Target.
func (t *Target) Run(seq [][]byte, tr *coverage.Trace) (crash *bugs.Crash) {
	t.inst.SetTrace(tr)
	t.inst.NewSession()
	for _, msg := range seq {
		crash = bugs.Capture(func() { t.inst.Message(msg) })
		if crash != nil {
			return crash
		}
	}
	return nil
}
