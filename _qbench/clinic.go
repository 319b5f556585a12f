package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"qbism/internal/qbism"
)

// warmSeconds is the closed-loop warm-up before any measured phase; it
// also runs every query of the cycle at least once.
const warmSeconds = 1.0

func runClinicBulk(r *run) error { return runClinic(r, "clinic-bulk", bulkSpecs) }

func runClinicSelective(r *run) error { return runClinic(r, "clinic-selective", selectiveSpecs) }

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	lat      []float64 // per-operation latency, ms
	byKey    latencies // the same, per query or task
	ops      int
	elapsed  time.Duration
	metaPgs  uint64  // Σ QueryMeta.LFMPages
	lfmPgs   uint64  // LFM page reads over the phase
	simTotal float64 // Σ 1993-model time of the operations, seconds
	mem0     memDelta
	mem1     memDelta
}

// recordPhase sets the end-to-end metrics of a closed-loop phase.
func (r *run) recordPhase(name string, p phaseResult) {
	secs := p.elapsed.Seconds()
	n := float64(len(p.lat))
	r.e2e["latency_p50_ms"] = p.byKey.median()
	r.e2e["latency_p99_ms"] = windowedP99(p.lat)
	r.e2e["throughput_qps"] = n / secs
	// A closed loop's offered rate is its completion rate: the rate one
	// client sustains.
	r.e2e["max_rate_qps"] = n / secs
	r.e2e["lfm_pages_per_query"] = float64(p.lfmPgs) / float64(p.ops)
	r.e2e["sim_s_per_query"] = p.simTotal / n
	fmt.Fprintf(os.Stderr, "qbench: %s: %d latency samples in %.2fs\n", name, len(p.lat), secs)
}

// runClinic is one clinician issuing queries back to back through
// System.RunQuery over the default simulated transport: the DX cache is
// flushed, the result imported and rendered, every answer checked.
func runClinic(r *run, name string, gen func(*qbism.System, uint64) []qbism.QuerySpec) error {
	srv, setup, err := setUp(r.seed, r.setups, false)
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
	qs, err := prepare(sys, o, gen(sys, r.seed))
	if err != nil {
		return err
	}
	c := &clinic{r: r, sys: sys, qs: qs, acc: layerAcc{lat: latencies{}}}
	c.phase(r.warmUp(len(qs)), nil)

	if !r.trace {
		p := c.phase(r.budget(1, true), nil)
		if p.lfmPgs != p.metaPgs {
			r.fail(fmt.Errorf("LFM read %d pages but responses report %d", p.lfmPgs, p.metaPgs), true)
		}
		r.recordPhase(name, p)
		return nil
	}

	half := r.budget(0.5, false)
	untraced := c.phase(half, nil)
	r.recordRuntime(untraced.mem0, untraced.mem1, untraced.ops)
	if err := r.recordSetupLayers(sys); err != nil {
		return err
	}
	tr := newTracer()
	c.phase(half, tr)
	if c.replayErr != nil {
		return c.replayErr
	}
	if err := r.recordSpans(tr, name); err != nil {
		return err
	}
	c.acc.record(r, untraced.byKey)
	return nil
}

// clinic drives the closed loop over a query cycle.
type clinic struct {
	r    *run
	sys  *qbism.System
	qs   []*query
	next int

	acc       layerAcc // traced phase only
	replayErr error
}

// phase runs operations back to back for the budget. With a tracer,
// every operation is followed by its traced replay.
func (c *clinic) phase(b budget, tr *tracer) phaseResult {
	p := phaseResult{byKey: latencies{}}
	sys := c.sys
	end := deadline(b.seconds)
	p.mem0 = memSample()
	lfm0 := sys.LFM.Stats().PageReads
	start := time.Now()
	for p.ops < b.minOps || time.Now().Before(end) {
		q := c.qs[c.next%len(c.qs)]
		c.next++
		var before snapshot
		if tr != nil {
			before = takeSnapshot(sys, sys.Transport.Stats().Messages)
		}
		t0 := time.Now()
		res, err := sys.RunQuery(q.spec)
		lat := time.Since(t0)
		p.ops++
		c.r.attempted++
		if err != nil {
			c.r.fail(fmt.Errorf("%s: %w", q.spec.Label(), err), false)
			continue
		}
		if err := checkResult(res, q); err != nil {
			c.r.fail(err, true)
			continue
		}
		p.lat = append(p.lat, ms(lat))
		p.byKey.add(q, ms(lat))
		p.metaPgs += res.Meta.LFMPages
		p.simTotal += res.Timing.TotalSim.Seconds()
		if tr != nil {
			c.acc.add(before, takeSnapshot(sys, sys.Transport.Stats().Messages))
			c.acc.retries += float64(res.Retry.Retries)
			c.acc.voxels += float64(res.Timing.Voxels)
			c.acc.lat.add(q, ms(lat))
			c.traceOp(tr, q, t0, lat)
		}
	}
	p.elapsed = time.Since(start)
	p.lfmPgs = sys.LFM.Stats().PageReads - lfm0
	p.mem1 = memSample()
	return p
}

// traceOp replays one traced operation's steps.
func (c *clinic) traceOp(tr *tracer, q *query, t0 time.Time, lat time.Duration) {
	req := tr.newReq()
	op := tr.add(req, -1, "op", t0, t0.Add(lat))
	call := func(req []byte) ([]byte, error) { return c.sys.Transport.Call(nil, qbism.QueryMethod, req) }
	n, ns, err := replayQuery(tr, c.sys, call, q, req, op, t0, lat)
	if err != nil {
		c.r.fail(err, true)
		if c.replayErr == nil {
			c.replayErr = err
		}
		return
	}
	c.acc.respBytes += float64(n)
	c.acc.walkNs = append(c.acc.walkNs, ns)
}

// checkBlob compares a response's DATA_REGION bytes with the oracle's.
func checkBlob(blob []byte, q *query) error {
	if !bytes.Equal(blob, q.want.blob) {
		return fmt.Errorf("%s: response differs from the oracle", q.spec.Label())
	}
	return nil
}

// checkResult compares a query result with the oracle's answer: the
// REGION, every voxel value, and the rendered image.
func checkResult(res *qbism.QueryResult, q *query) error {
	want := q.want
	switch {
	case res.Data == nil || !res.Data.Region.Equal(want.data.Region):
		return fmt.Errorf("%s: result REGION differs from the oracle", q.spec.Label())
	case !bytes.Equal(res.Data.Values, want.data.Values):
		return fmt.Errorf("%s: voxel values differ from the oracle", q.spec.Label())
	case res.Image == nil || !bytes.Equal(res.Image.Pix, want.img):
		return fmt.Errorf("%s: rendered image differs from the oracle", q.spec.Label())
	}
	return nil
}
