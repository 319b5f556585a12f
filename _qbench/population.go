package main

import (
	"fmt"
	"time"

	"qbism/internal/lfm"
	"qbism/internal/qbism"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
)

// bandTask is one Table 4 operation: the region where every PET study
// has intensities in one band, read in one stored encoding.
type bandTask struct {
	lo, hi  int
	enc     string
	want    *region.Region
	handles []lfm.Handle // per PET study, the stored band REGION
}

// populationTasks is the cycle: every band in every encoding of
// populationEncs (Z-runs twice), in seeded order, with the oracle's
// answer — the intersection of the load-time band REGIONs.
func populationTasks(sys *qbism.System, seed uint64) ([]*bandTask, error) {
	rng := newRand(seed, 4)
	pets := sys.PETStudyIDs()
	var tasks []*bandTask
	for _, b := range sys.BandRegions[pets[0]] {
		var regions []*region.Region
		for _, st := range pets {
			for _, sb := range sys.BandRegions[st] {
				if sb.Lo == b.Lo && sb.Hi == b.Hi {
					regions = append(regions, sb.Region)
				}
			}
		}
		want, err := region.IntersectN(regions...)
		if err != nil {
			return nil, err
		}
		for _, enc := range populationEncs {
			t := &bandTask{lo: int(b.Lo), hi: int(b.Hi), enc: enc, want: want}
			for _, st := range pets {
				h, err := bandHandle(sys, st, t.lo, t.hi, enc)
				if err != nil {
					return nil, err
				}
				t.handles = append(t.handles, h)
			}
			tasks = append(tasks, t)
		}
	}
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	return tasks, nil
}

// runPopulation runs Table 4's consistent-band intersection back to back
// with System.ConsistentBandRegion over all PET studies, two workers.
func runPopulation(r *run) error {
	srv, setup, err := setUp(r.seed, r.setups, false)
	if err != nil {
		return err
	}
	defer srv.Close()
	sys := srv.sys
	r.e2e["setup_s"] = setup
	r.e2e["stored_bytes_per_voxel"] = storedBytesPerVoxel(sys)
	tasks, err := populationTasks(sys, r.seed)
	if err != nil {
		return err
	}
	p := &population{r: r, sys: sys, tasks: tasks, pets: sys.PETStudyIDs(), acc: layerAcc{lat: latencies{}}}
	p.phase(r.warmUp(len(tasks)), nil)

	if !r.trace {
		r.recordPhase("population", p.phase(r.budget(1, true), nil))
		return nil
	}

	half := r.budget(0.5, false)
	untraced := p.phase(half, nil)
	r.recordRuntime(untraced.mem0, untraced.mem1, untraced.ops)
	if err := r.recordSetupLayers(sys); err != nil {
		return err
	}
	tr := newTracer()
	p.phase(half, tr)
	if p.replayErr != nil {
		return p.replayErr
	}
	if err := r.recordSpans(tr, "population"); err != nil {
		return err
	}
	r.layer["qbism.batch_parallel_efficiency"] = median(p.efficiency)
	p.acc.record(r, untraced.byKey)
	r.layer["dx.voxels"] = 0 // the answer is a REGION; no DX stage runs
	return nil
}

type population struct {
	r     *run
	sys   *qbism.System
	tasks []*bandTask
	pets  []int
	next  int

	acc        layerAcc // traced phase only
	efficiency []float64
	replayErr  error
}

// phase runs operations back to back for the budget. The 1993-model
// time of an operation is Table 4's: measured time plus the device time
// of its pages.
func (p *population) phase(b budget, tr *tracer) phaseResult {
	ph := phaseResult{byKey: latencies{}}
	sys := p.sys
	end := deadline(b.seconds)
	ph.mem0 = memSample()
	start := time.Now()
	lfm0 := sys.LFM.Stats().PageReads
	for ; ph.ops < b.minOps || time.Now().Before(end); ph.ops++ {
		t := p.tasks[p.next%len(p.tasks)]
		p.next++
		before := takeSnapshot(sys, 0)
		t0 := time.Now()
		got, err := sys.ConsistentBandRegion(p.pets, t.lo, t.hi, t.enc, populationWorker)
		d := time.Since(t0)
		after := takeSnapshot(sys, 0)
		p.r.attempted++
		if err != nil {
			p.r.fail(fmt.Errorf("band [%d,%d] %s: %w", t.lo, t.hi, t.enc, err), false)
			continue
		}
		if !got.Equal(t.want) {
			p.r.fail(fmt.Errorf("band [%d,%d] %s: consistent region differs from the oracle", t.lo, t.hi, t.enc), true)
			continue
		}
		ph.lat = append(ph.lat, ms(d))
		ph.byKey.add(t, ms(d))
		ph.simTotal += sys.Model.StarburstTime(d, after.lfmPages-before.lfmPages).Seconds()
		if tr != nil {
			p.acc.add(before, after)
			p.acc.lat.add(t, ms(d))
			p.acc.voxels += float64(got.NumVoxels())
			p.traceOp(tr, t, t0, d)
		}
	}
	ph.elapsed = time.Since(start)
	ph.lfmPgs = sys.LFM.Stats().PageReads - lfm0
	ph.mem1 = memSample()
	return ph
}

// traceOp replays one operation: per study the catalog statement, the
// REGION read, its decode and its recode onto the storage curve, then
// the N-way intersection and a curve walk over the answer.
func (p *population) traceOp(tr *tracer, t *bandTask, t0 time.Time, d time.Duration) {
	req := tr.newReq()
	op := tr.add(req, -1, "qbism.batch", t0, t0.Add(d))
	var fetch time.Duration
	regions := make([]*region.Region, len(p.pets))
	err := func() error {
		for i, st := range p.pets {
			args := []sdb.Value{sdb.Int(int64(st)), sdb.Int(int64(t.lo)), sdb.Int(int64(t.hi)), sdb.Str(t.enc)}
			sqlID, err := tr.timed(req, op, "sdb.query", func() error {
				_, err := drain(p.sys.DB, bandFetchSQL, args...)
				return err
			})
			if err != nil {
				return err
			}
			if _, err := tr.timed(req, sqlID, "sdb.parse", func() error {
				_, err := sdb.Parse(bandFetchSQL)
				return err
			}); err != nil {
				return err
			}
			var data []byte
			readID, err := tr.timed(req, op, "lfm.read", func() error {
				var err error
				data, err = p.sys.LFM.Read(t.handles[i])
				return err
			})
			if err != nil {
				return err
			}
			var r *region.Region
			decID, err := tr.timed(req, op, "rencode.decode", func() error {
				var err error
				r, err = rencode.Decode(data)
				return err
			})
			if err != nil {
				return err
			}
			recID, err := tr.timed(req, op, "region.recode", func() error {
				var err error
				regions[i], err = r.Recode(p.sys.Curve)
				return err
			})
			if err != nil {
				return err
			}
			for _, id := range []int{sqlID, readID, decID, recID} {
				fetch += tr.spans[id].dur()
			}
		}
		var out *region.Region
		if _, err := tr.timed(req, op, "region.intersect", func() error {
			var err error
			out, err = region.IntersectN(regions...)
			return err
		}); err != nil {
			return err
		}
		if !out.Equal(t.want) {
			return fmt.Errorf("replayed band [%d,%d] %s: region differs from the oracle", t.lo, t.hi, t.enc)
		}
		p.acc.walkNs = append(p.acc.walkNs, walkCurve(tr, req, op, out))
		return nil
	}()
	if err != nil {
		p.r.fail(err, true)
		if p.replayErr == nil {
			p.replayErr = err
		}
		return
	}
	p.efficiency = append(p.efficiency, float64(fetch)/(populationWorker*float64(d)))
}
