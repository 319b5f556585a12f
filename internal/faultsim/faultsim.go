// Package faultsim provides deterministic, seeded fault injection for
// the simulated QBISM deployment: the RPC link between the DX front end
// and the MedicalServer (transport.Sim) and the long-field disk device
// (lfm).
//
// A Policy describes what can go wrong and how often — per-call and
// per-page probabilities, or an explicit schedule pinning a fault to the
// Nth operation — and an Injector draws faults from it with a private
// splitmix64 stream. Two injectors built from the same Policy produce
// the same fault sequence for the same operation sequence, so chaos
// tests and benchmarks are exactly reproducible.
//
// The paper's Section 5 prototype assumes a perfect network and a
// perfect disk; this package exists so the reproduction can stop
// assuming that.
package faultsim

import (
	"fmt"
	"time"
)

// Kind is one failure mode.
type Kind uint8

const (
	// None means the operation proceeds normally.
	None Kind = iota

	// Link faults (per payload crossing).

	// Drop loses the message; the call fails with a typed error.
	Drop
	// Timeout stalls the call past its deadline; typed error.
	Timeout
	// Latency delivers the message after extra simulated delay.
	Latency
	// Corrupt damages the payload and the link layer detects it
	// (checksum at the transport), failing the call with a typed error.
	Corrupt
	// Tamper silently flips one payload byte in flight; only an
	// end-to-end integrity check (the response frame CRC) can catch it.
	Tamper

	// Device faults (per 4 KB page touched).

	// ReadErr fails the device read with a typed error (media error).
	ReadErr
	// PageCorrupt silently flips one bit in the data returned by a page
	// read; only page checksums can catch it.
	PageCorrupt
	// WriteErr fails the device write with a typed error.
	WriteErr
	// TornWrite silently writes only the first half of a page and
	// reports success; detected later by checksum verification on read.
	TornWrite

	numKinds
)

var kindNames = [numKinds]string{
	"none", "drop", "timeout", "latency", "corrupt", "tamper",
	"read-err", "page-corrupt", "write-err", "torn-write",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Scheduled pins a fault to an exact operation index, for tests that
// need a failure at a precise point rather than a probability. Op is
// 1-based and counts every fault decision the consuming component makes
// (each link payload crossing, each device page touched).
type Scheduled struct {
	Op   uint64
	Kind Kind
}

// Policy is a deterministic fault schedule. The zero value injects
// nothing. Probabilities are per decision: per payload crossing for the
// link kinds, per page touched for the device kinds. At most one fault
// fires per decision; probabilities are treated as cumulative slices of
// one uniform draw, so their sum should stay below 1.
type Policy struct {
	// Seed drives the injector's private random stream.
	Seed uint64

	// Link fault probabilities (per payload crossing).
	DropProb    float64
	TimeoutProb float64
	LatencyProb float64
	CorruptProb float64
	TamperProb  float64
	// ExtraLatency is the simulated delay added per Latency fault.
	ExtraLatency time.Duration

	// Device fault probabilities (per page touched).
	ReadErrProb     float64
	PageCorruptProb float64
	WriteErrProb    float64
	TornWriteProb   float64

	// Schedule forces specific faults at specific operation indices,
	// checked before the probability draw. A scheduled kind outside the
	// deciding operation's family (e.g. a Drop scheduled on a device
	// page read) is ignored.
	Schedule []Scheduled
}

// linkTotal returns the summed link probabilities (for rate reporting).
func (p Policy) linkTotal() float64 {
	return p.DropProb + p.TimeoutProb + p.LatencyProb + p.CorruptProb + p.TamperProb
}

// Rand is a splitmix64 stream: tiny, fast, and deterministic across
// platforms — exactly what reproducible fault schedules and retry
// jitter need. The zero value is a valid stream with seed 0.
type Rand struct{ state uint64 }

// NewRand returns a stream seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value of the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("faultsim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Injector draws faults from a Policy. It is not safe for concurrent
// use; consumers that may be called concurrently (transport.Sim) must
// serialize access. A nil *Injector is valid and injects nothing.
type Injector struct {
	policy Policy
	rng    Rand
	ops    uint64
	sched  map[uint64]Kind
	counts [numKinds]uint64
}

// New builds an injector for the policy.
func New(p Policy) *Injector {
	in := &Injector{policy: p, rng: Rand{state: p.Seed}}
	if len(p.Schedule) > 0 {
		in.sched = make(map[uint64]Kind, len(p.Schedule))
		for _, s := range p.Schedule {
			in.sched[s.Op] = s.Kind
		}
	}
	return in
}

// Policy returns the injector's policy.
func (in *Injector) Policy() Policy {
	if in == nil {
		return Policy{}
	}
	return in.policy
}

// Ops returns the number of fault decisions made so far.
func (in *Injector) Ops() uint64 {
	if in == nil {
		return 0
	}
	return in.ops
}

// Count returns how many faults of the kind have been injected.
func (in *Injector) Count(k Kind) uint64 {
	if in == nil || int(k) >= len(in.counts) {
		return 0
	}
	return in.counts[k]
}

// Counts returns all non-zero injected-fault counters.
func (in *Injector) Counts() map[Kind]uint64 {
	out := make(map[Kind]uint64)
	if in == nil {
		return out
	}
	for k, n := range in.counts {
		if n > 0 {
			out[Kind(k)] = n
		}
	}
	return out
}

// Intn exposes the injector's stream for fault parameters (corrupted
// byte offsets, flipped bit positions) so they are as deterministic as
// the faults themselves.
func (in *Injector) Intn(n int) int { return in.rng.Intn(n) }

// decide advances one operation and picks a fault among kinds with the
// matching cumulative probabilities. One uniform draw per decision
// keeps the stream alignment independent of which probabilities are
// set.
func (in *Injector) decide(kinds []Kind, probs []float64) Kind {
	if in == nil {
		return None
	}
	in.ops++
	if k, ok := in.sched[in.ops]; ok {
		for _, allowed := range kinds {
			if k == allowed {
				in.counts[k]++
				return k
			}
		}
	}
	u := in.rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u < acc {
			in.counts[kinds[i]]++
			return kinds[i]
		}
	}
	return None
}

// LinkFault decides the fate of one payload crossing the link.
func (in *Injector) LinkFault() Kind {
	if in == nil {
		return None
	}
	p := in.policy
	return in.decide(
		[]Kind{Drop, Timeout, Latency, Corrupt, Tamper},
		[]float64{p.DropProb, p.TimeoutProb, p.LatencyProb, p.CorruptProb, p.TamperProb})
}

// ReadFault decides the fate of one device page read.
func (in *Injector) ReadFault() Kind {
	if in == nil {
		return None
	}
	p := in.policy
	return in.decide(
		[]Kind{ReadErr, PageCorrupt},
		[]float64{p.ReadErrProb, p.PageCorruptProb})
}

// WriteFault decides the fate of one device page write.
func (in *Injector) WriteFault() Kind {
	if in == nil {
		return None
	}
	p := in.policy
	return in.decide(
		[]Kind{WriteErr, TornWrite},
		[]float64{p.WriteErrProb, p.TornWriteProb})
}
