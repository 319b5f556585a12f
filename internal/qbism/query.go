package qbism

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/costmodel"
	"qbism/internal/dx"
	"qbism/internal/obs"
	"qbism/internal/sfc"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// QueryTiming is one row of Table 3: result size, I/O, and the
// per-component time breakdown. Measured* fields are this machine's
// actual wall times; Sim* fields price the counted work with the
// calibrated 1993 cost model so rows are comparable with the paper's.
type QueryTiming struct {
	Label  string
	HRuns  int
	Voxels uint64

	LFMPages uint64 // LFM disk I/Os (4 KB pages)

	DBMeasured     time.Duration // server-side handler time on this machine
	DBSimReal      time.Duration // simulated Starburst/MedicalServer real time
	NetMessages    uint64
	NetSim         time.Duration
	ImportMeasured time.Duration
	ImportSim      time.Duration
	RenderMeasured time.Duration
	RenderSim      time.Duration
	RetrySim       time.Duration // simulated backoff waits across retries
	OtherSim       time.Duration
	TotalSim       time.Duration
	TotalMeasured  time.Duration
}

// QueryResult is a completed end-to-end query.
type QueryResult struct {
	Spec   QuerySpec
	Meta   QueryMeta
	Data   *volume.DataRegion
	Field  *dx.Field
	Image  *dx.Image
	Timing QueryTiming
	// Retry reports the query's resilience history: attempts, retries,
	// and total simulated backoff.
	Retry transport.RetryStats
	// Shard reports which shard and node answered and what retry and
	// failover work the cluster did on the way (a single-node System
	// is shard 0, node s0p).
	Shard *cluster.ReadInfo
	// Trace is the query's span tree (nil unless Config.Trace): the RPC
	// round trips, server-side SQL phases and operators, per-handle LFM
	// I/O, and the DX import/render stages.
	Trace *obs.Span
}

// frontEnd is the client half of every query, whatever the topology:
// it routes a study to its shard, reads through the cluster's one retry
// loop (cluster.ReadShard), and finishes the DX stages — import,
// render, cache — pricing the work with the cost model and feeding the
// observability sinks. A single-node System is a one-shard, one-node
// cluster behind the same frontEnd as a ClusterSystem, so timing,
// retries, metrics, and traces are computed one way for both.
type frontEnd struct {
	cluster *cluster.Cluster
	// routes maps study IDs to routing keys. It is nil on a single-node
	// System: there every study goes to the one shard, keyed by its own
	// ID, and the MedicalServer answers for unknown ones.
	routes  map[int]cluster.Key
	workers int       // default pool size for batches and band fetches
	curve   sfc.Curve // band REGIONs are recoded onto it

	cache      *dx.Cache
	model      costmodel.Model
	tracer     *obs.Tracer
	metrics    *obs.Registry
	slowLog    *obs.SlowLog
	slowThresh time.Duration
}

// key returns the routing key for a study; a study outside the
// cluster's corpus is a terminal error.
func (fe *frontEnd) key(studyID int) (cluster.Key, error) {
	if fe.routes == nil {
		return cluster.Key{Patient: studyID, Study: studyID}, nil
	}
	if k, ok := fe.routes[studyID]; ok {
		return k, nil
	}
	return cluster.Key{}, fmt.Errorf("qbism: no study %d in the cluster corpus", studyID)
}

// RunQuery executes a query end to end under the paper's measurement
// protocol: the DX cache is flushed first, then the spec crosses the
// network to the MedicalServer, SQL runs in the database, the result
// crosses back, DX imports it and renders an image. Every component's
// work is counted and timed.
//
// The network exchange is resilient: both directions are CRC-framed so
// corruption and truncation surface as typed errors, and transient
// failures (drops, timeouts, corrupt frames, device read faults) are
// retried per Config.Retry with capped exponential backoff and
// deterministic jitter. Backoff is simulated time — no real sleeping —
// accounted in Timing.RetrySim.
func (s *System) RunQuery(spec QuerySpec) (*QueryResult, error) {
	return s.front.runQuery(nil, spec)
}

// runQuery is RunQuery with an optional parent span (the batch root,
// for RunQueries). It routes the spec, reads it from its shard —
// validating and parsing the reply inside the read, so a reply
// corrupted past the link layer's own checks is retried or fails over
// like a failed call — and finishes the query client-side. With
// tracing enabled it produces the query's span tree, feeds the metrics
// registry, and captures slow queries.
func (fe *frontEnd) runQuery(parent *obs.Span, spec QuerySpec) (*QueryResult, error) {
	fe.cache.Flush() // §6.1: "we flushed the DX cache before each run"
	totalStart := time.Now()

	var root *obs.Span
	if parent != nil {
		root = parent.Child("query")
	} else {
		root = fe.tracer.Start("query")
	}
	root.SetStr("spec", spec.Label())

	key, err := fe.key(spec.StudyID)
	if err != nil {
		// Unroutable: terminal, not a shard health problem.
		return nil, fe.fail(root, transport.RetryStats{Attempts: 1}, err)
	}
	request, err := EncodeQueryRequest(spec)
	if err != nil {
		return nil, fe.fail(root, transport.RetryStats{}, err)
	}
	// The first reply that validates is the served node's (a hedge's
	// reply is validated after it); that is the one kept.
	var meta *QueryMeta
	var blob []byte
	_, info, err := fe.cluster.Read(root, key, spec.Key(), medicalQueryMethod, request, func(resp []byte) error {
		m, b, err := splitResponse(resp)
		if err == nil && meta == nil {
			meta, blob = m, b
		}
		return err
	})
	if err != nil {
		return nil, fe.fail(root, info.RetryStats, fmt.Errorf("qbism: query failed after %d attempt(s): %w", info.Attempts, err))
	}
	return fe.finish(root, spec, meta, blob, info, totalStart)
}

// finish performs the client-side DX stages — import, render, cache —
// prices the work with the cost model, and feeds the observability
// sinks. The read's metered Messages and NetSim price the network.
func (fe *frontEnd) finish(root *obs.Span, spec QuerySpec, meta *QueryMeta, blob []byte, info cluster.ReadInfo, totalStart time.Time) (*QueryResult, error) {
	retry := info.RetryStats
	importStart := time.Now()
	importSp := root.Child("dx.import")
	data, err := UnmarshalDataRegion(blob)
	if err != nil {
		importSp.End()
		return nil, fe.fail(root, retry, err)
	}
	field, importStats, err := dx.ImportVolume(data)
	importSp.SetInt("voxels", int64(importStats.Voxels))
	importSp.SetInt("runs", int64(importStats.Runs))
	importSp.End()
	if err != nil {
		return nil, fe.fail(root, retry, err)
	}
	importDur := time.Since(importStart)

	renderStart := time.Now()
	renderSp := root.Child("dx.render")
	img, err := field.Render(dx.RenderOpts{Axis: 2, Mode: dx.MIP})
	renderSp.End()
	if err != nil {
		return nil, fe.fail(root, retry, err)
	}
	renderDur := time.Since(renderStart)
	fe.cache.Put(spec.Key(), field)

	t := QueryTiming{
		Label:          spec.Label(),
		HRuns:          data.Region.NumRuns(),
		Voxels:         data.Region.NumVoxels(),
		LFMPages:       meta.LFMPages,
		DBMeasured:     time.Duration(meta.DBCPUNanos),
		DBSimReal:      fe.model.StarburstTime(time.Duration(meta.DBCPUNanos), meta.LFMPages),
		NetMessages:    info.Messages,
		NetSim:         info.NetSim,
		ImportMeasured: importDur,
		ImportSim:      fe.model.ImportTime(importStats.Voxels, importStats.Runs),
		RenderMeasured: renderDur,
		RenderSim:      fe.model.RenderTime(importStats.Voxels),
		RetrySim:       retry.BackoffSim,
		OtherSim:       fe.model.OtherTime,
	}
	t.TotalSim = t.DBSimReal + t.NetSim + t.ImportSim + t.RenderSim + t.RetrySim + t.OtherSim
	t.TotalMeasured = time.Since(totalStart)

	root.SetInt("attempts", int64(retry.Attempts))
	root.SetInt("retries", int64(retry.Retries))
	root.SetInt("lfm.pages", int64(meta.LFMPages))
	root.SetInt("voxels", int64(t.Voxels))
	if meta.Degraded {
		root.SetStr("degraded", meta.Warning)
	}
	root.End()
	fe.observe(spec, t, retry, root)

	return &QueryResult{
		Spec: spec, Meta: *meta, Data: data, Field: field, Image: img, Timing: t, Retry: retry,
		Shard: &info, Trace: root,
	}, nil
}

// fail finishes a query's observability on the error path: the root
// span is annotated and ended, and the error counters bump.
func (fe *frontEnd) fail(root *obs.Span, retry transport.RetryStats, err error) error {
	root.SetStr("error", err.Error())
	root.SetInt("attempts", int64(retry.Attempts))
	root.SetInt("retries", int64(retry.Retries))
	root.End()
	fe.metrics.Counter("qbism_queries_total").Inc()
	fe.metrics.Counter("qbism_query_errors_total").Inc()
	fe.metrics.Counter("qbism_retries_total").Add(int64(retry.Retries))
	return err
}

// observe feeds the metrics registry and, when the query's measured
// latency reaches the slow-log threshold, captures the full span tree
// plus the executed plan into the slow-query ring.
func (fe *frontEnd) observe(spec QuerySpec, t QueryTiming, retry transport.RetryStats, root *obs.Span) {
	fe.metrics.Counter("qbism_queries_total").Inc()
	fe.metrics.Counter("qbism_retries_total").Add(int64(retry.Retries))
	fe.metrics.Histogram("qbism_query_latency_seconds", obs.LatencyBuckets).
		Observe(t.TotalMeasured.Seconds())
	fe.metrics.Histogram("qbism_query_lfm_pages", obs.PageBuckets).
		Observe(float64(t.LFMPages))
	if fe.slowLog != nil && root != nil && t.TotalMeasured >= fe.slowThresh {
		fe.slowLog.Add(obs.SlowEntry{
			Label:   spec.Label(),
			Total:   t.TotalMeasured,
			Tree:    root.RenderString(),
			Explain: explainFromSpan(root),
		})
	}
}

// explainFromSpan reconstructs the EXPLAIN ANALYZE view from a query's
// span tree: the operator spans under each "sql.execute" phase carry
// exactly the counters explainSelect would print, so no re-execution
// (and no extra I/O) is needed for the forensic capture.
func explainFromSpan(root *obs.Span) []string {
	var out []string
	var operators func(sp *obs.Span, depth int)
	operators = func(sp *obs.Span, depth int) {
		in, _ := sp.Int("rowsIn")
		outRows, _ := sp.Int("rowsOut")
		udf, _ := sp.Int("udfCalls")
		pages, _ := sp.Int("lfmPages")
		probe, _ := sp.Int("probeFast")
		out = append(out, fmt.Sprintf("%s%s [in=%d out=%d udf=%d pages=%d probe=%d]",
			strings.Repeat("  ", depth), sp.Name(), in, outRows, udf, pages, probe))
		for _, c := range sp.Children() {
			operators(c, depth+1)
		}
	}
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() != "sql.execute" {
			return
		}
		for _, c := range sp.Children() {
			operators(c, 0)
		}
	})
	return out
}

// RunQueryCached serves the query from the DX cache when possible (the
// interactive path: "the user can quickly review and manipulate the
// results of several recently issued queries without necessitating a
// database reaccess"). On a miss it falls through to RunQuery.
func (s *System) RunQueryCached(spec QuerySpec) (*QueryResult, bool, error) {
	if field, ok := s.Cache.Get(spec.Key()); ok {
		img, err := field.Render(dx.RenderOpts{Axis: 2, Mode: dx.MIP})
		if err != nil {
			return nil, false, err
		}
		return &QueryResult{
			Spec:  spec,
			Data:  field.Data,
			Field: field,
			Image: img,
			Timing: QueryTiming{
				Label:  spec.Label() + " (cached)",
				HRuns:  field.Data.Region.NumRuns(),
				Voxels: field.Data.Region.NumVoxels(),
			},
		}, true, nil
	}
	res, err := s.RunQuery(spec)
	return res, false, err
}

// ExplainSpec renders the physical operator tree for the SQL the
// MedicalServer would generate for spec — the visibility hook for
// where the planner placed each spatial predicate relative to the
// extractVoxels() projection. With analyze set the query actually
// executes and each line carries its runtime counters (rows in/out,
// UDF calls, LFM pages charged to that operator's expressions). Band
// queries are prefixed with a "band repr:" line naming the REGION
// representation the query resolves to and whether the planner picked
// it or the spec forced it.
func (s *System) ExplainSpec(spec QuerySpec, analyze bool) ([]string, error) {
	var lines []string
	if spec.HasBand {
		src := "forced"
		if spec.Encoding == "" {
			spec.Encoding = s.bandEncoding(spec.StudyID, spec.BandLo, spec.BandHi)
			src = "planner-selected"
		}
		lines = append(lines, fmt.Sprintf("band repr: %s (%s)", spec.Encoding, src))
	}
	sql, args, err := dataQuerySQL(spec)
	if err != nil {
		return nil, err
	}
	prefix := "explain "
	if analyze {
		prefix = "explain analyze "
	}
	res, err := s.DB.Exec(prefix+sql, args...)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		lines = append(lines, row[0].S)
	}
	return lines, nil
}

// splitResponse validates the response frame and separates the JSON
// meta header from the DataRegion blob. Truncated or corrupted frames
// fail with transport.ErrFrameTruncated/ErrFrameCorrupt — typed,
// retryable — so a damaged reply is never mis-parsed as data.
func splitResponse(resp []byte) (*QueryMeta, []byte, error) {
	header, blob, err := transport.DecodeFrame(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("qbism: response: %w", err)
	}
	var meta QueryMeta
	if err := json.Unmarshal(header, &meta); err != nil {
		return nil, nil, fmt.Errorf("qbism: bad response header: %w", err)
	}
	return &meta, blob, nil
}
