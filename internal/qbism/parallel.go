package qbism

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/obs"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/transport"
)

// The parallel executor: multi-study workloads — Table 4's n-way
// intersection and batches of independent query specs — fan out per
// study over a bounded worker pool. The whole query stack below here is
// safe for concurrent readers: the LFM serializes I/O (and its fault
// injector) under its mutex, the simulated link and dx.Cache carry
// their own locks, and the SQL SELECT path is read-only. Results are collected by
// input position, so ordering is deterministic regardless of worker
// interleaving; each worker runs the same retrying RunQuery path, so
// PR 1's fault-resilience guarantees carry over unchanged.
//
// What is NOT deterministic under concurrency: per-query I/O counters
// (QueryMeta deltas interleave — see the note on QueryMeta) and the
// assignment of fault-injector draws to queries (the injector stream is
// consumed in arrival order at the device). Measured experiments that
// need exact per-query counters or a reproducible fault schedule run
// serially, as the paper's did.

// BatchItem is one completed entry of a RunQueries batch: the spec, and
// either its result or its error.
type BatchItem struct {
	Spec QuerySpec
	Res  *QueryResult
	Err  error
}

// RunQueries executes the specs across a bounded worker pool and
// returns one BatchItem per spec, in input order. workers <= 0 takes
// the pool size from Config.Workers; a resolved size of 0 or 1 runs
// serially on the calling goroutine. Individual query failures (after
// RunQuery's own retries) land in their item's Err; the batch always
// completes.
func (s *System) RunQueries(specs []QuerySpec, workers int) []BatchItem {
	items, _ := s.RunQueriesTraced(specs, workers)
	return items
}

// RunQueriesTraced is RunQueries plus the batch's root span: every
// per-study query tree hangs off one "batch" span, so a multi-study
// workload renders as a single forest. The span is nil when tracing is
// off. Spans are internally locked, so concurrent workers appending
// children under the shared root are race-clean.
func (s *System) RunQueriesTraced(specs []QuerySpec, workers int) ([]BatchItem, *obs.Span) {
	items, _, batch := s.front.runQueries(specs, workers)
	return items, batch
}

// runQueries runs the specs over the worker pool, each through
// runQuery under one batch span, and folds the items lost to a dead
// shard into the batch's PartialResult (nil when every shard answered).
func (fe *frontEnd) runQueries(specs []QuerySpec, workers int) ([]BatchItem, *cluster.PartialResult, *obs.Span) {
	if workers <= 0 {
		workers = fe.workers
	}
	batch := fe.tracer.Start("batch")
	batch.SetInt("queries", int64(len(specs)))
	batch.SetInt("workers", int64(workers))
	defer batch.End()
	out := make([]BatchItem, len(specs))
	forEach(len(specs), workers, func(i int) {
		res, err := fe.runQuery(batch, specs[i])
		out[i] = BatchItem{Spec: specs[i], Res: res, Err: err}
	})
	studies := make([]int, len(out))
	errs := make([]error, len(out))
	for i, item := range out {
		studies[i], errs[i] = item.Spec.StudyID, item.Err
	}
	partial := fe.partial(studies, errs)
	if partial != nil {
		batch.SetStr("partial", partial.String())
	}
	return out, partial, batch
}

// partial folds per-study errors into the typed PartialResult meta —
// nil when no shard was lost — and counts the loss.
func (fe *frontEnd) partial(studies []int, errs []error) *cluster.PartialResult {
	keys := make([]cluster.Key, len(studies))
	shards := make([]int, len(studies))
	for i, id := range studies {
		key, err := fe.key(id)
		if err != nil {
			continue // unroutable items are plain errors, not lost shards
		}
		keys[i] = key
		shards[i] = fe.cluster.Partitioner().Shard(key)
	}
	partial := cluster.BuildPartial(fe.cluster.Shards(), keys, shards, errs)
	if partial != nil {
		fe.metrics.Counter("cluster_partial_total").Inc()
		fe.metrics.Counter("cluster_lost_queries_total").Add(int64(partial.LostKeys()))
	}
	return partial
}

// forEach calls fn(i) for every i in [0, n) over a pool of at most
// workers goroutines, returning once all calls have. With one worker
// (or one item) it runs serially on the calling goroutine. fn must
// write only to slot i of any shared output.
func forEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// BatchSim prices a completed batch with the cost model's simulated
// clock: serial is the sum of every successful item's simulated total
// (one query after another, the paper's protocol), parallel is the
// makespan of list-scheduling the same durations over the given worker
// count in input order — the simulated wall clock of the executor. On
// hardware with fewer cores than workers the measured wall clock is
// capped by the machine; the simulated ratio prices what the overlap
// buys on the modeled 1993 testbed, deterministically.
func BatchSim(items []BatchItem, workers int) (serial, parallel time.Duration) {
	if workers < 1 {
		workers = 1
	}
	busy := make([]time.Duration, workers)
	for _, item := range items {
		if item.Res == nil {
			continue
		}
		d := item.Res.Timing.TotalSim
		serial += d
		// Next item goes to the earliest-free worker.
		min := 0
		for w := 1; w < workers; w++ {
			if busy[w] < busy[min] {
				min = w
			}
		}
		busy[min] += d
	}
	for _, b := range busy {
		if b > parallel {
			parallel = b
		}
	}
	return serial, parallel
}

// ConsistentBandRegion computes the Table 4 answer — the REGION where
// every listed study has intensities in [bandLo, bandHi] under the
// given encoding — fetching the per-study band REGIONs concurrently
// over a bounded pool, then intersecting smallest-first. The result is
// identical to the serial SQL plan's: each fetch is an independent
// read, and IntersectN is order-independent. A study whose fetch fails
// fails the whole answer.
func (s *System) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, error) {
	out, partial, err := s.front.consistentBandRegion(studies, bandLo, bandHi, encoding, workers)
	if err == nil && partial != nil {
		return nil, partial.Failed[0].Err
	}
	return out, err
}

// consistentBandRegion fetches each study's stored band REGION through
// the bandRegion RPC — no import or render, only the REGION bytes —
// and intersects them. Studies lost to a dead shard are left out of
// the intersection and named in the PartialResult; err is non-nil only
// for terminal failures or when no study survived.
func (fe *frontEnd) consistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, *cluster.PartialResult, error) {
	if len(studies) == 0 {
		return nil, nil, fmt.Errorf("qbism: ConsistentBandRegion needs at least one study")
	}
	if workers <= 0 {
		workers = fe.workers
	}
	regions := make([]*region.Region, len(studies))
	errs := make([]error, len(studies))
	forEach(len(studies), workers, func(i int) {
		if r, err := fe.fetchBand(studies[i], bandLo, bandHi, encoding); err != nil {
			errs[i] = fmt.Errorf("qbism: study %d band [%d,%d] %s: %w", studies[i], bandLo, bandHi, encoding, err)
		} else {
			regions[i] = r
		}
	})
	partial := fe.partial(studies, errs)
	var live []*region.Region
	for i, err := range errs {
		switch {
		case err == nil:
			live = append(live, regions[i])
		case errors.Is(err, cluster.ErrShardUnavailable):
			// Accounted in partial; the intersection degrades gracefully.
		default:
			return nil, partial, err
		}
	}
	if len(live) == 0 {
		return nil, partial, fmt.Errorf("qbism: all %d studies lost: %w", len(studies), cluster.ErrShardUnavailable)
	}
	out, err := region.IntersectN(live...)
	return out, partial, err
}

// fetchBand reads one study's stored band REGION through the
// bandRegion RPC, decodes it, and recodes it onto the front end's
// curve (mirroring the nIntersect UDF's normalization).
func (fe *frontEnd) fetchBand(studyID, bandLo, bandHi int, encoding string) (*region.Region, error) {
	key, err := fe.key(studyID)
	if err != nil {
		return nil, err
	}
	spec := QuerySpec{StudyID: studyID, HasBand: true, BandLo: bandLo, BandHi: bandHi, Encoding: encoding}
	request, err := EncodeQueryRequest(spec)
	if err != nil {
		return nil, err
	}
	var r *region.Region
	_, _, err = fe.cluster.Read(nil, key, spec.Key(), bandRegionMethod, request, func(resp []byte) error {
		_, body, err := transport.DecodeFrame(resp)
		if err != nil {
			return fmt.Errorf("qbism: band response: %w", err)
		}
		got, err := rencode.Decode(body)
		if err == nil && got.Curve().Kind() != fe.curve.Kind() {
			got, err = got.Recode(fe.curve)
		}
		if err == nil && r == nil {
			r = got
		}
		return err
	})
	return r, err
}

// Table4OneParallel is Table4One with the per-study band fetches fanned
// out across the worker pool. The row's result columns (runs, voxels)
// and total page count match the serial plan; only wall-clock CPU
// changes.
func (s *System) Table4OneParallel(bandLo, bandHi int, encoding string, workers int) (Table4Row, error) {
	pets := s.PETStudyIDs()
	if len(pets) < 2 {
		return Table4Row{}, fmt.Errorf("qbism: need at least 2 PET studies, have %d", len(pets))
	}
	pages0 := s.LFM.Stats().PageReads
	//lint:ignore determinism CPUMeasured is deliberately real wall time (Table 4's measured-CPU column); the replayable clock lives in RealSim/BatchSim
	start := time.Now()
	out, err := s.ConsistentBandRegion(pets, bandLo, bandHi, encoding, workers)
	if err != nil {
		return Table4Row{}, err
	}
	//lint:ignore determinism pairs with the wall-clock start above; simulated time is reported separately in RealSim
	cpu := time.Since(start)
	pages := s.LFM.Stats().PageReads - pages0
	return Table4Row{
		Encoding:    encoding,
		NumStudies:  len(pets),
		LFMPages:    pages,
		CPUMeasured: cpu,
		RealSim:     s.Model.StarburstTime(cpu, pages),
		ResultRuns:  out.NumRuns(),
		ResultVox:   out.NumVoxels(),
	}, nil
}
