// Package transport is the single seam between the DX client side and
// the MedicalServer: everything that carries a framed RPC — the
// in-process dispatch used by tests, the simulated link the chaos
// suites replay deterministically, and real TCP sockets — implements
// the same small interface, so retry, backoff, and failover logic is
// written once and applies identically to a simulated remote and a
// live daemon. It is the only RPC abstraction: a System's client, each
// cluster node, and a load generator's connection are all Transports.
//
// The three flavors:
//
//   - Local: direct handler dispatch, no network model. The degenerate
//     case for tests and the server side of loopback equivalence
//     checks.
//   - Sim: the simulated link (sim.go). Traffic is metered and priced
//     with the 1993 cost model and faults replay byte-for-byte from a
//     seed, so the chaos and differential suites are deterministic.
//   - TCP: real sockets speaking the CRC frame protocol (frame.go) to a
//     qbismd daemon. The only flavor allowed to read the wall clock.
//
// Client-side resilience lives here too (retry.go): CallRetry wraps any
// Transport with the capped-exponential, deterministically jittered
// retry schedule, and RetryPolicy plus RetryableError are the one retry
// configuration and transient-vs-terminal classification both the
// single-link client and the cluster failover path use.
package transport

import (
	"errors"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/obs"
)

// Typed transport failures beyond the frame errors (frame.go). All are
// matchable with errors.Is through %w chains.
var (
	// ErrClosed means the transport was closed and cannot carry calls.
	ErrClosed = errors.New("transport: closed")
	// ErrDial means establishing the connection failed (retryable: the
	// server may be back for the next attempt).
	ErrDial = errors.New("transport: dial failed")
	// ErrConn means an established connection broke mid-call
	// (retryable: the client redials lazily on the next call).
	ErrConn = errors.New("transport: connection failed")
	// ErrAdmissionRejected means the server's per-client admission
	// control refused the call (retryable: back off and try again).
	ErrAdmissionRejected = errors.New("transport: admission rejected")
	// ErrDraining means the server is shutting down and refused new
	// work (retryable: another node, or the restarted server, may
	// answer).
	ErrDraining = errors.New("transport: server draining")
	// ErrRemote marks a server-side failure the server itself
	// classified as retryable (e.g. a device read fault); the concrete
	// cause only exists in the server process, so the client matches
	// this sentinel instead.
	ErrRemote = errors.New("transport: retryable remote failure")
	// ErrUnknownMethod means the server has no handler for the method.
	ErrUnknownMethod = errors.New("transport: unknown method")
)

// Handler is the server side of the seam: it answers one framed RPC.
// The span is the server-side trace span for the call (nil when the
// call is untraced).
type Handler func(sp *obs.Span, method string, request []byte) ([]byte, error)

// Stats is a transport's cumulative traffic accounting. Deltas around
// a call price that call.
type Stats struct {
	// Calls counts calls initiated (one per Call).
	Calls uint64
	// Errors counts calls that returned an error.
	Errors uint64
	// Messages counts cost-model messages for the traffic carried
	// (request + response). The sim flavor prices each payload
	// crossing with the model, lost payloads included; local and tcp
	// count one per direction.
	Messages uint64
	// BytesOut and BytesIn count request and response payload bytes.
	BytesOut uint64
	BytesIn  uint64
	// Retries counts client retries reported via NoteRetry.
	Retries uint64
	// Latency is the cumulative simulated latency of carried calls:
	// network-model time plus injected latency for the sim flavor,
	// zero for local, measured wall time for tcp. Per-call deltas of
	// this field are what the cluster's EWMA and hedging consume.
	Latency time.Duration

	// Faults counts crossings hit by the sim flavor's fault policy
	// (zero for local and tcp). Latencies counts the crossings it
	// delayed, by LatencySim in total; PerMethod breaks Faults down by
	// RPC method.
	Faults
	Latencies  uint64
	LatencySim time.Duration
	PerMethod  map[string]Faults
}

// Faults counts injected link faults by kind.
type Faults struct {
	Drops       uint64
	Timeouts    uint64
	Corruptions uint64
	Tampers     uint64
}

func (f *Faults) bump(k faultsim.Kind) {
	switch k {
	case faultsim.Drop:
		f.Drops++
	case faultsim.Timeout:
		f.Timeouts++
	case faultsim.Corrupt:
		f.Corruptions++
	case faultsim.Tamper:
		f.Tampers++
	}
}

func (f Faults) sub(o Faults) Faults {
	return Faults{
		Drops:       f.Drops - o.Drops,
		Timeouts:    f.Timeouts - o.Timeouts,
		Corruptions: f.Corruptions - o.Corruptions,
		Tampers:     f.Tampers - o.Tampers,
	}
}

// Sub returns s - o, for per-call deltas. The per-method map subtracts
// entry-wise; methods whose delta is zero are omitted.
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		Calls:      s.Calls - o.Calls,
		Errors:     s.Errors - o.Errors,
		Messages:   s.Messages - o.Messages,
		BytesOut:   s.BytesOut - o.BytesOut,
		BytesIn:    s.BytesIn - o.BytesIn,
		Retries:    s.Retries - o.Retries,
		Latency:    s.Latency - o.Latency,
		Faults:     s.Faults.sub(o.Faults),
		Latencies:  s.Latencies - o.Latencies,
		LatencySim: s.LatencySim - o.LatencySim,
	}
	for method, f := range s.PerMethod {
		if df := f.sub(o.PerMethod[method]); df != (Faults{}) {
			if d.PerMethod == nil {
				d.PerMethod = make(map[string]Faults)
			}
			d.PerMethod[method] = df
		}
	}
	return d
}

// Transport carries framed RPCs from a client to a MedicalServer,
// wherever it lives. Implementations must be safe for concurrent use;
// Call must wrap typed causes with %w so errors.Is classification
// (RetryableError) survives.
type Transport interface {
	// Call performs one RPC under the given parent span (nil =
	// untraced) and returns the raw response payload.
	Call(parent *obs.Span, method string, request []byte) ([]byte, error)
	// Stats returns cumulative traffic counters.
	Stats() Stats
	// Close releases the transport's resources; subsequent calls fail
	// with ErrClosed.
	Close() error
}

// retryNoter is the optional interface a transport implements to have
// client retries folded into its own accounting (the sim flavor counts
// them beside its traffic so chaos tests reconcile retries exactly).
type retryNoter interface{ NoteRetry() }

// NoteRetry records a client retry on the transport's counters.
func NoteRetry(t Transport) {
	if n, ok := t.(retryNoter); ok {
		n.NoteRetry()
	}
}
