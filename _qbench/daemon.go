package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/qbism"
	"qbism/internal/transport"
)

// The open loop's fixed settings: the nominal rate the latency metrics
// are measured at, the rate ladder max_rate_qps climbs, the p99 limit
// a ladder step must meet, and how late the generator may run before a
// step is invalid.
const (
	nominalRate    = 400.0
	latencyLimitMs = 20.0
	lagLimitMs     = latencyLimitMs / 2
	daemonConns    = 2
	replaySample   = 240 // traced operations replayed layer by layer
	// nominalShare of the run is spent at the nominal rate; each ladder
	// step above it lasts rungShare of the run (and at least minSamples
	// arrivals), so the whole ladder fits in the rest.
	nominalShare = 0.5
	rungShare    = 0.05
)

var rateLadder = []float64{800, 1600, 2400, 3200, 4000, 4800, 5600, 6400}

// arrival is one request of the open loop, due at a fixed time.
type arrival struct {
	i   int
	due time.Time
	q   *query
}

// opResult is what a connection worker observed for one arrival.
type opResult struct {
	q         *query
	pickup    time.Time
	wait, lat time.Duration // due→pickup, due→response decoded
	service   time.Duration // pickup→response decoded
	respBytes int
	err       error
	refused   bool
	sim       float64 // 1993-model seconds for the served query
}

// stepResult is one rate step of the open loop.
type stepResult struct {
	rate     float64
	ops      []opResult
	lag      []float64 // generator lateness per arrival, ms
	backlog  int       // requests queued when the last one was due
	elapsed  time.Duration
	lfmPages uint64
}

func (s *stepResult) latencies() []float64 {
	var out []float64
	for _, o := range s.ops {
		if o.err == nil {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

func (s *stepResult) completed() int { return len(s.latencies()) }

func (s *stepResult) byKey() latencies {
	l := latencies{}
	for _, o := range s.ops {
		if o.err == nil {
			l.add(o.q, ms(o.lat))
		}
	}
	return l
}

// valid reports whether the generator kept to its schedule.
func (s *stepResult) valid() bool { return quantile(s.lag, 0.99) <= lagLimitMs }

// passes reports whether the step met the latency limit without a
// growing backlog: every request answered, p99 within the limit, and no
// more requests queued at the end than the limit lets drain in time.
func (s *stepResult) passes() bool {
	return s.valid() && s.completed() == len(s.ops) &&
		quantile(s.latencies(), 0.99) <= latencyLimitMs &&
		float64(s.backlog) <= s.rate*latencyLimitMs/1000
}

// loadgen is the open-loop client: one generator, daemonConns TCP
// connections each served by one worker.
type loadgen struct {
	r     *run
	sys   *qbism.System
	srv   *server
	conns []*transport.TCP
	qs    []*query
	next  int
	steps int
	model costmodel.Model

	mu                    sync.Mutex
	sent, failed, refused int // guarded by mu
}

// call issues one request on a connection and keeps the client-side
// counts the daemon's own counters are reconciled against.
func (g *loadgen) call(c *transport.TCP, req []byte) ([]byte, error) {
	resp, err := c.Call(nil, qbism.QueryMethod, req)
	g.mu.Lock()
	g.sent++
	switch {
	case err == nil:
	case errors.Is(err, transport.ErrAdmissionRejected):
		g.refused++
	default:
		g.failed++
	}
	g.mu.Unlock()
	return resp, err
}

// step offers n requests as Poisson arrivals at rate per second.
func (g *loadgen) step(rate float64, n int) *stepResult {
	g.steps++
	rng := newRand(g.r.seed, 100+uint64(g.steps))
	st := &stepResult{rate: rate, ops: make([]opResult, n), lag: make([]float64, n)}
	ch := make(chan arrival, n) // holds the whole step: the generator never blocks
	lfm0 := g.sys.LFM.Stats().PageReads
	var wg sync.WaitGroup
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *transport.TCP) {
			defer wg.Done()
			for a := range ch {
				st.ops[a.i] = g.serve(c, a)
			}
		}(c)
	}
	start := time.Now()
	due := start
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.lag[i] = ms(time.Since(due))
		q := g.qs[g.next%len(g.qs)]
		g.next++
		ch <- arrival{i: i, due: due, q: q}
	}
	st.backlog = len(ch)
	close(ch)
	wg.Wait()
	st.elapsed = time.Since(start)
	st.lfmPages = g.sys.LFM.Stats().PageReads - lfm0
	return st
}

// serve performs one arrival on connection c and checks the answer.
func (g *loadgen) serve(c *transport.TCP, a arrival) opResult {
	o := opResult{q: a.q, pickup: time.Now()}
	o.wait = o.pickup.Sub(a.due)
	resp, err := g.call(c, a.q.req)
	if err != nil {
		o.err, o.refused = err, errors.Is(err, transport.ErrAdmissionRejected)
		return o
	}
	meta, blob, err := qbism.DecodeQueryResponse(resp)
	done := time.Now()
	o.lat, o.service, o.respBytes = done.Sub(a.due), done.Sub(o.pickup), len(resp)
	if err == nil {
		err = checkBlob(blob, a.q)
	}
	if err != nil {
		o.err = err
		return o
	}
	m := g.model
	msgs := m.Messages(uint64(len(a.q.req))) + m.Messages(uint64(len(resp)))
	o.sim = (m.StarburstTime(time.Duration(meta.DBCPUNanos), meta.LFMPages) + m.NetworkTime(msgs) + m.OtherTime).Seconds()
	return o
}

// tally counts a step's operations into the run.
func (g *loadgen) tally(st *stepResult) {
	for _, o := range st.ops {
		g.r.attempted++
		if o.err != nil {
			wrong := !o.refused && !errors.Is(o.err, transport.ErrConn)
			g.r.fail(o.err, wrong)
		}
	}
}

// runDaemonMixed drives qbismd in-process over loopback TCP with an
// open loop of Poisson arrivals from one generator over two connections.
func runDaemonMixed(r *run) error {
	srv, setup, err := setUp(r.seed, r.setups, true)
	if err != nil {
		return err
	}
	defer srv.Close()
	sys := srv.sys
	r.e2e["setup_s"] = setup
	r.e2e["stored_bytes_per_voxel"] = storedBytesPerVoxel(sys)
	o, err := newOracle(sys)
	if err != nil {
		return err
	}
	qs, err := prepare(sys, o, daemonSpecs(sys, r.seed))
	if err != nil {
		return err
	}
	g := &loadgen{r: r, sys: sys, srv: srv, qs: qs, model: sys.Model}
	addr := srv.d.Addr().String()
	for i := 0; i < daemonConns; i++ {
		c := transport.DialTCP(addr, transport.TCPOptions{CallTimeout: 30 * time.Second})
		defer c.Close()
		g.conns = append(g.conns, c)
	}

	// Warm-up: the whole cycle, then warmSeconds at the nominal rate.
	for _, q := range qs {
		if _, err := g.call(g.conns[0], q.req); err != nil {
			return fmt.Errorf("warm-up %s: %w", q.spec.Label(), err)
		}
	}
	if w := r.warmUp(0); w.seconds > 0 {
		g.tally(g.step(nominalRate, int(nominalRate*w.seconds)))
	}

	if !r.trace {
		nom := g.step(nominalRate, g.arrivals(nominalRate, nominalShare))
		g.tally(nom)
		lat := nom.latencies()
		secs := nom.elapsed.Seconds()
		var sim float64
		for _, op := range nom.ops {
			sim += op.sim
		}
		r.e2e["latency_p50_ms"] = nom.byKey().median()
		r.e2e["latency_p99_ms"] = windowedP99(lat)
		r.e2e["throughput_qps"] = float64(len(lat)) / secs
		r.e2e["lfm_pages_per_query"] = float64(nom.lfmPages) / float64(len(nom.ops))
		r.e2e["sim_s_per_query"] = sim / float64(len(nom.ops))
		r.e2e["max_rate_qps"] = g.maxRate(nom)
		fmt.Fprintf(os.Stderr, "qbench: daemon-mixed: %d samples at %.0f/s\n", len(lat), nominalRate)
		return g.reconcile()
	}

	half := g.arrivals(nominalRate, nominalShare)
	untraced := g.step(nominalRate, half)
	g.tally(untraced)
	m0, srv0 := memSample(), srv.d.Stats()
	before := takeSnapshot(sys, g.messages())
	traced := g.step(nominalRate, half)
	after := takeSnapshot(sys, g.messages())
	for _, st := range []*stepResult{untraced, traced} {
		if !st.valid() {
			r.layer["loadgen.invalid_steps"]++
		}
	}
	r.recordRuntime(m0, memSample(), len(traced.ops))
	srv1 := srv.d.Stats()
	r.layer["transport.server_calls"] = float64(srv1.Calls-srv0.Calls) / float64(len(traced.ops))
	r.layer["transport.server_errors"] = float64(srv1.Errors - srv0.Errors)
	r.layer["transport.admission_rejected"] = float64(srv1.AdmissionRejected)
	g.tally(traced)
	if err := r.recordSetupLayers(sys); err != nil {
		return err
	}
	if err := g.traceStep(traced, before, after, untraced.byKey()); err != nil {
		return err
	}
	return g.reconcile()
}

// arrivals is the size of a step at rate lasting share of the run: at
// least minSamples, or exactly fixedOps in fixed-ops mode.
func (g *loadgen) arrivals(rate, share float64) int {
	if g.r.fixedOps > 0 {
		return g.r.fixedOps
	}
	return max(g.r.minSamples, int(rate*g.r.seconds*share))
}

// maxRate climbs the ladder from the nominal step and returns the
// highest rate meeting the latency limit, interpolating log p99
// linearly between the last passing and the first failing step. A
// step that fails is run once more before the climb stops, so one
// burst of preemption by other processes does not end it; the better
// attempt counts.
func (g *loadgen) maxRate(nom *stepResult) float64 {
	last := nom
	if !last.passes() {
		return nominalRate * math.Min(1, latencyLimitMs/quantile(nom.latencies(), 0.99))
	}
	for _, rate := range rateLadder {
		var st *stepResult
		p99 := math.Inf(1)
		for attempt := 0; attempt < 2 && (st == nil || !st.passes()); attempt++ {
			a := g.step(rate, g.arrivals(rate, rungShare))
			g.tally(a)
			ap99 := quantile(a.latencies(), 0.99)
			fmt.Fprintf(os.Stderr, "qbench: daemon-mixed: %.0f/s: p99 %.2f ms, generator lag p99 %.2f ms, backlog %d, valid %v\n",
				rate, ap99, quantile(a.lag, 0.99), a.backlog, a.valid())
			if st == nil || a.passes() || ap99 < p99 {
				st, p99 = a, ap99
			}
		}
		if st.passes() {
			last = st
			continue
		}
		lo := quantile(last.latencies(), 0.99)
		frac := 0.0
		if p99 > latencyLimitMs && lo < latencyLimitMs {
			frac = math.Log(latencyLimitMs/lo) / math.Log(p99/lo)
		}
		return last.rate + (rate-last.rate)*frac
	}
	return last.rate
}

// reconcile checks the client's counts against the daemon's: every
// request sent was dispatched, failures match, nothing was refused.
func (g *loadgen) reconcile() error {
	st := g.srv.d.Stats()
	g.mu.Lock()
	sent, failed, refused := g.sent, g.failed, g.refused
	g.mu.Unlock()
	if uint64(sent-refused) != st.Calls || uint64(failed) != st.Errors ||
		uint64(refused) != st.AdmissionRejected || st.AdmissionRejected != 0 {
		err := fmt.Errorf("client sent %d (failed %d, refused %d) but the daemon counted %d calls, %d errors, %d admission rejections",
			sent, failed, refused, st.Calls, st.Errors, st.AdmissionRejected)
		g.r.fail(err, true)
	}
	return nil
}

// traceStep records the traced step's per-layer metrics: queueing and
// generator lateness from the live loop, the public counters over the
// step (before and after are their samples around it), and a
// layer-by-layer replay of its first replaySample operations.
func (g *loadgen) traceStep(st *stepResult, before, after snapshot, untraced latencies) error {
	r := g.r
	var waits []float64
	acc := layerAcc{lat: st.byKey()}
	acc.add(before, after)
	acc.ops = float64(len(st.ops))
	for _, o := range st.ops {
		waits = append(waits, ms(o.wait))
		acc.respBytes += float64(o.respBytes)
		if o.err == nil {
			acc.voxels += float64(o.q.want.data.NumVoxels())
		}
	}
	r.layer["transport.conn_wait_ms"] = quantile(waits, 0.99)
	r.layer["loadgen.lag_ms"] = quantile(st.lag, 0.99)

	tr := newTracer()
	call := func(req []byte) ([]byte, error) { return g.call(g.conns[0], req) }
	for i, o := range st.ops {
		if i == replaySample {
			break
		}
		if o.err != nil {
			continue
		}
		req := tr.newReq()
		op := tr.add(req, -1, "op", o.pickup, o.pickup.Add(o.service))
		_, ns, err := replayQuery(tr, g.sys, call, o.q, req, op, o.pickup, o.service)
		if err != nil {
			r.fail(err, true)
			return err
		}
		acc.walkNs = append(acc.walkNs, ns)
	}
	if err := r.recordSpans(tr, "daemon-mixed"); err != nil {
		return err
	}
	acc.record(r, untraced)
	return nil
}

// messages sums the client connections' message counts.
func (g *loadgen) messages() uint64 {
	var n uint64
	for _, c := range g.conns {
		n += c.Stats().Messages
	}
	return n
}
