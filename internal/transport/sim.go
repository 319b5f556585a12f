package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/obs"
)

// Typed link failures injected by the sim flavor's fault policy. All
// are retryable (RetryableError).
var (
	// ErrDropped means the message was lost in flight.
	ErrDropped = errors.New("transport: message dropped")
	// ErrLinkTimeout means the call exceeded its deadline.
	ErrLinkTimeout = errors.New("transport: call timed out")
	// ErrCorrupt means the payload was damaged in flight and the link
	// layer detected it.
	ErrCorrupt = errors.New("transport: payload corrupted in flight")
)

// Sim is the simulated-remote flavor: the RPC link between the DX
// client and the MedicalServer (Figures 7/8 of the paper). Calls
// dispatch in-process to the handler while every payload crossing —
// request and response — is metered and priced with the 1993 cost
// model, reproducing Table 3's network column (message count and
// answer time).
//
// Unlike the paper's testbed, the link does not have to be perfect: an
// optional faultsim.Injector (SetFaults) makes crossings drop, time
// out, gain latency, or get corrupted — detectably (the call fails
// with ErrCorrupt) or silently (a tamper flips one byte that only an
// end-to-end integrity check can see). Fault draws happen once per
// crossing in call order, so a seeded policy replays byte-for-byte.
type Sim struct {
	handler Handler
	model   costmodel.Model
	closed  atomic.Bool

	mu     sync.Mutex
	stats  Stats              // guarded by mu
	faults *faultsim.Injector // guarded by mu
}

// NewSim builds a simulated link to handler, priced with model.
func NewSim(handler Handler, model costmodel.Model) *Sim {
	return &Sim{handler: handler, model: model}
}

// SetFaults installs (or, with nil, removes) the link's fault injector.
// The link serializes access to it.
func (s *Sim) SetFaults(in *faultsim.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = in
}

// Call implements Transport. The round trip is traced under parent
// (nil = untraced) as an "rpc.<method>" span with one child per leg:
// "net.request" and "net.response" for the crossings — annotated with
// bytes, messages, and any injected fault — and "server", which the
// handler's own work nests under.
func (s *Sim) Call(parent *obs.Span, method string, request []byte) ([]byte, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("transport: sim %q: %w", method, ErrClosed)
	}
	rpc := parent.Child("rpc." + method)
	defer rpc.End()
	resp, err := s.roundTrip(rpc, method, request)
	s.mu.Lock()
	s.stats.Calls++
	if err != nil {
		s.stats.Errors++
	}
	s.mu.Unlock()
	if err != nil {
		rpc.SetStr("error", err.Error())
		return nil, err
	}
	return resp, nil
}

func (s *Sim) roundTrip(rpc *obs.Span, method string, request []byte) ([]byte, error) {
	delivered, err := s.cross(rpc, "request", method, request)
	if err != nil {
		return nil, err
	}
	srv := rpc.Child("server")
	resp, err := s.handler(srv, method, delivered)
	srv.End()
	if err != nil {
		return nil, err
	}
	return s.cross(rpc, "response", method, resp)
}

// cross moves one payload over the link: it meters the traffic, draws
// a fault decision, and either delivers the (possibly tampered)
// payload or fails with a typed error. A lost payload is still
// metered — the bytes were sent.
func (s *Sim) cross(parent *obs.Span, dir, method string, payload []byte) ([]byte, error) {
	sp := parent.Child("net." + dir)
	defer sp.End()
	n := uint64(len(payload))
	msgs := s.model.Messages(n)
	sp.SetInt("bytes", int64(n))
	sp.SetInt("messages", int64(msgs))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Messages += msgs
	if dir == "request" {
		s.stats.BytesOut += n
	} else {
		s.stats.BytesIn += n
	}
	fault := s.faults.LinkFault()
	if fault == faultsim.None {
		return payload, nil
	}
	sp.SetStr("fault", fault.String())
	var err error
	switch fault {
	case faultsim.Drop:
		err = ErrDropped
	case faultsim.Timeout:
		err = ErrLinkTimeout
	case faultsim.Corrupt:
		err = ErrCorrupt
	case faultsim.Tamper:
		if len(payload) > 0 {
			tampered := make([]byte, len(payload))
			copy(tampered, payload)
			tampered[s.faults.Intn(len(tampered))] ^= 1 << s.faults.Intn(8)
			payload = tampered
		}
	case faultsim.Latency:
		extra := s.faults.Policy().ExtraLatency
		s.stats.Latencies++
		s.stats.LatencySim += extra
		sp.SetInt("latencySimNs", int64(extra))
		return payload, nil
	}
	s.stats.Faults.bump(fault)
	if s.stats.PerMethod == nil {
		s.stats.PerMethod = make(map[string]Faults)
	}
	f := s.stats.PerMethod[method]
	f.bump(fault)
	s.stats.PerMethod[method] = f
	if err != nil {
		return nil, fmt.Errorf("transport: sim %s: %w", method, err)
	}
	return payload, nil
}

// NoteRetry records that a client retried a failed call; the link
// keeps the counter so per-query deltas line up with the traffic
// counters (the chaos suites reconcile the two exactly).
func (s *Sim) NoteRetry() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Retries++
}

// Stats implements Transport. Latency prices the message meter with
// the cost model plus injected latency; NetworkTime is linear in
// messages, so a delta of this cumulative figure equals pricing the
// delta's messages directly. The per-method map is copied.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Latency = s.model.NetworkTime(st.Messages) + st.LatencySim
	if s.stats.PerMethod != nil {
		st.PerMethod = make(map[string]Faults, len(s.stats.PerMethod))
		for m, f := range s.stats.PerMethod {
			st.PerMethod[m] = f
		}
	}
	return st
}

// Close implements Transport. The link holds no resources; closing
// only fences further calls.
func (s *Sim) Close() error {
	s.closed.Store(true)
	return nil
}

var _ Transport = (*Sim)(nil)
