package qbism

// Sharded execution: the study corpus partitioned across K shards,
// each a (primary, replica...) set of full QBISM nodes — its own LFM
// device, database, and simulated link — each reached by the cluster
// through a transport.Transport. The front end (DX cache, cost model,
// observability) is shared with the single-node System via frontEnd,
// so a query finishes identically whether it was fetched over one link
// or scatter-gathered across a degraded cluster.
//
// Determinism: every node synthesizes its shard of the corpus from the
// same global (ID, seed) enumeration (Config.OnlyStudies), so a shard's
// replicas — and the same studies in an unsharded system — hold
// byte-identical REGIONs. Replica failover therefore returns
// byte-identical answers, and the degraded-shard chaos suite can assert
// exact equality against an unsharded control system.

import (
	"errors"
	"fmt"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/costmodel"
	"qbism/internal/dx"
	"qbism/internal/faultsim"
	"qbism/internal/obs"
	"qbism/internal/region"
	"qbism/internal/synth"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// ClusterConfig parameterizes a ClusterSystem.
type ClusterConfig struct {
	// Shards is the partition count K (default 2).
	Shards int
	// Replicas is the number of replicas per shard beyond the primary
	// (default 1, i.e. each shard is a primary/replica pair).
	Replicas int
	// Base configures every node: corpus, encoding, checksums, device.
	// Base.OnlyStudies is overwritten per node with the shard's subset;
	// Base.LinkFaults/DeviceFaults apply to every node unless NodeFaults
	// overrides them.
	Base Config
	// NodeFaults, when non-nil, returns the fault policies for the
	// given node (replica 0 is the primary); nil return values mean no
	// injection on that node. Overrides Base.LinkFaults/DeviceFaults.
	NodeFaults func(shard, replica int) (link, device *faultsim.Policy)
	// NodeDial, when non-nil, builds the cluster's transport to the
	// given node (the node's fully built System is passed in). Nil
	// means each node is reached through its own default transport —
	// the simulated link, exactly the pre-seam wiring. A custom dial
	// lets a cluster front real daemons without the routing, breaker,
	// or hedging layers changing.
	NodeDial func(shard, replica int, sys *System) (transport.Transport, error)
	// Breaker configures each node's circuit breaker (zero disables).
	Breaker cluster.BreakerConfig
	// Retry governs cross-node failover retries: MaxAttempts bounds the
	// node calls per read and Backoff/Seed drive the deterministic
	// jittered waits — the same schedule single-link retries use.
	Retry transport.RetryPolicy
	// HedgeAfter enables hedged reads once a node's simulated-latency
	// EWMA reaches it (zero disables).
	HedgeAfter time.Duration
	// Workers bounds the scatter-gather worker pool (default
	// Base.Workers).
	Workers int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Shards < 1 {
		c.Shards = 2
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	} else if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Workers == 0 {
		c.Workers = c.Base.Workers
	}
	return c
}

// ClusterSystem is a sharded QBISM deployment: K shards of replicated
// nodes behind one front end. It exposes the same query surface as
// System — RunQuery, RunQueries, ConsistentBandRegion — with routing,
// failover, and partial-result semantics layered in.
type ClusterSystem struct {
	Cfg     ClusterConfig
	Cluster *cluster.Cluster
	// Nodes holds the per-shard node systems: Nodes[shard][0] is the
	// primary, the rest replicas.
	Nodes [][]*System

	// Studies is the global corpus view (every study, regardless of
	// shard), in load order.
	Studies []StudyInfo

	Model   costmodel.Model
	Cache   *dx.Cache
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	SlowLog *obs.SlowLog

	routes map[int]cluster.Key // studyID -> routing key
	// dialed holds the transports Cfg.NodeDial built, so Close can
	// release them (a node's default transport closes with its System).
	dialed []transport.Transport
}

// Close releases every node the cluster built: each replica's dialed
// transport and each node System (its own transport and long-field
// manager). Close also works on a partially constructed cluster, which
// is how NewClusterSystem unwinds its error paths.
func (cs *ClusterSystem) Close() error {
	var first error
	for _, t := range cs.dialed {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, replicas := range cs.Nodes {
		for _, sys := range replicas {
			if err := sys.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// NewClusterSystem enumerates the corpus, partitions it by
// (patient, study) key, and builds one full System per node, each
// loading only its shard's studies.
func NewClusterSystem(cfg ClusterConfig) (*ClusterSystem, error) {
	cfg = cfg.withDefaults()
	base := cfg.Base.withDefaults()

	// Enumerate the global corpus exactly as loadStudies will: the
	// routing table is derived from IDs alone, before any node exists.
	part := cluster.NewPartitioner(cfg.Shards)
	cs := &ClusterSystem{
		Cfg:    cfg,
		routes: make(map[int]cluster.Key),
	}
	perShard := make([][]int, cfg.Shards)
	for i := 0; i < base.NumPET+base.NumMRI; i++ {
		info := StudyInfo{StudyID: i + 1, PatientID: i + 1, Modality: modalityFor(base, i)}
		key := cluster.Key{Patient: info.PatientID, Study: info.StudyID}
		sh := part.Shard(key)
		cs.routes[info.StudyID] = key
		perShard[sh] = append(perShard[sh], info.StudyID)
		cs.Studies = append(cs.Studies, info)
	}

	var shardNodes [][]transport.Transport
	for sh := 0; sh < cfg.Shards; sh++ {
		var nodes []transport.Transport
		for r := 0; r <= cfg.Replicas; r++ {
			nodeCfg := base
			// The shard's subset — always non-nil, so an empty shard
			// loads nothing rather than everything.
			nodeCfg.OnlyStudies = append([]int{}, perShard[sh]...)
			// The cluster owns retries and failover; each node link
			// answers exactly once per dial.
			nodeCfg.Retry = transport.RetryPolicy{MaxAttempts: 1}
			// Node-level tracing is off: spans hang off the front end's
			// tracer through the parent span threaded into each call.
			nodeCfg.Trace = false
			nodeCfg.SlowLogThreshold = 0
			if cfg.NodeFaults != nil {
				nodeCfg.LinkFaults, nodeCfg.DeviceFaults = cfg.NodeFaults(sh, r)
			}
			sys, err := New(nodeCfg)
			if err != nil {
				cs.Close()
				return nil, fmt.Errorf("qbism: cluster node s%dr%d: %w", sh, r, err)
			}
			cs.addNode(sh, sys)
			tr := sys.Transport
			if cfg.NodeDial != nil {
				if tr, err = cfg.NodeDial(sh, r, sys); err != nil {
					cs.Close()
					return nil, fmt.Errorf("qbism: dialing node s%dr%d: %w", sh, r, err)
				}
				cs.dialed = append(cs.dialed, tr)
			}
			nodes = append(nodes, tr)
		}
		shardNodes = append(shardNodes, nodes)
	}

	cs.Metrics = obs.NewRegistry()
	cs.Model = costmodel.Default1993()
	cs.Cache = dx.NewCache(8)
	if base.Trace {
		cs.Tracer = obs.NewTracer()
		if base.SlowLogThreshold > 0 {
			cs.SlowLog = obs.NewSlowLog(base.SlowLogCapacity)
		}
	}

	cl, err := cluster.New(cluster.Config{
		Breaker:    cfg.Breaker,
		Retry:      cfg.Retry.WithDefaults(),
		HedgeAfter: cfg.HedgeAfter,
		Metrics:    cs.Metrics,
	}, shardNodes)
	if err != nil {
		cs.Close()
		return nil, err
	}
	cs.Cluster = cl
	return cs, nil
}

func (cs *ClusterSystem) addNode(shard int, sys *System) {
	for len(cs.Nodes) <= shard {
		cs.Nodes = append(cs.Nodes, nil)
	}
	cs.Nodes[shard] = append(cs.Nodes[shard], sys)
}

// modalityFor mirrors loadStudies' modality assignment.
func modalityFor(cfg Config, i int) synth.Modality {
	if i >= cfg.NumPET {
		return synth.MRI
	}
	return synth.PET
}

// Route returns the shard a study's queries are served by.
func (cs *ClusterSystem) Route(studyID int) (shard int, ok bool) {
	key, ok := cs.routes[studyID]
	if !ok {
		return 0, false
	}
	return cs.Cluster.Partitioner().Shard(key), true
}

// fe returns the cluster's shared front end.
func (cs *ClusterSystem) fe() frontEnd {
	return frontEnd{
		cache:      cs.Cache,
		model:      cs.Model,
		metrics:    cs.Metrics,
		slowLog:    cs.SlowLog,
		slowThresh: cs.Cfg.Base.SlowLogThreshold,
	}
}

// RunQuery executes one query end to end through the cluster: route by
// (patient, study) key, read with failover/hedging, then finish through
// the shared front end. The result's Shard field reports how the read
// was served.
func (cs *ClusterSystem) RunQuery(spec QuerySpec) (*QueryResult, error) {
	return cs.runQuerySpan(nil, spec)
}

func (cs *ClusterSystem) runQuerySpan(parent *obs.Span, spec QuerySpec) (*QueryResult, error) {
	cs.Cache.Flush() // same measurement protocol as System.RunQuery
	totalStart := time.Now()

	var root *obs.Span
	if parent != nil {
		root = parent.Child("query")
	} else {
		root = cs.Tracer.Start("query")
	}
	root.SetStr("spec", spec.Label())

	key, ok := cs.routes[spec.StudyID]
	if !ok {
		// Unroutable: terminal, not a shard health problem.
		return nil, cs.fe().fail(root, transport.RetryStats{Attempts: 1},
			fmt.Errorf("qbism: no study %d in the cluster corpus", spec.StudyID))
	}
	request, err := EncodeQueryRequest(spec)
	if err != nil {
		return nil, cs.fe().fail(root, transport.RetryStats{}, err)
	}

	// Validation runs inside the read, so a reply corrupted in flight
	// fails over to another node like a failed call.
	resp, info, err := cs.Cluster.Read(root, key, medicalQueryMethod, request, func(resp []byte) error {
		_, _, err := splitResponse(resp)
		return err
	})
	retry := transport.RetryStats{Attempts: info.Attempts, Retries: info.Retries, BackoffSim: info.BackoffSim}
	if err != nil {
		retry.LastError = err.Error()
		return nil, cs.fe().fail(root, retry, fmt.Errorf("qbism: query failed: %w", err))
	}
	meta, blob, err := splitResponse(resp)
	if err != nil {
		// Unreachable: the read already validated the winning reply.
		return nil, cs.fe().fail(root, retry, err)
	}
	// One successful exchange = 2 messages; the read's simulated
	// latency already prices the winning call's network model time,
	// injected latency, and call quantum.
	res, err := cs.fe().finish(root, spec, meta, blob, retry, 2, info.LatencySim, totalStart)
	if res != nil {
		shardInfo := info
		res.Shard = &shardInfo
	}
	return res, err
}

// RunQueries scatter-gathers the specs across the cluster over a
// bounded worker pool, returning one BatchItem per spec in input order
// plus the batch's PartialResult: nil when every shard answered,
// otherwise the typed meta naming each shard lost past retries and the
// keys that went unanswered with it. Items lost to a dead shard carry
// a cluster.ErrShardUnavailable error; the surviving items' results
// are complete and exact — graceful degradation, never a silent wrong
// answer.
func (cs *ClusterSystem) RunQueries(specs []QuerySpec, workers int) ([]BatchItem, *cluster.PartialResult) {
	items, partial, _ := cs.RunQueriesTraced(specs, workers)
	return items, partial
}

// RunQueriesTraced is RunQueries plus the batch's root span (nil when
// tracing is off).
func (cs *ClusterSystem) RunQueriesTraced(specs []QuerySpec, workers int) ([]BatchItem, *cluster.PartialResult, *obs.Span) {
	if workers <= 0 {
		workers = cs.Cfg.Workers
	}
	batch := cs.Tracer.Start("batch")
	batch.SetInt("queries", int64(len(specs)))
	batch.SetInt("workers", int64(workers))
	defer batch.End()

	out := make([]BatchItem, len(specs))
	forEach(len(specs), workers, func(i int) {
		res, err := cs.runQuerySpan(batch, specs[i])
		out[i] = BatchItem{Spec: specs[i], Res: res, Err: err}
	})

	partial := cs.buildPartial(out)
	if partial != nil {
		cs.Metrics.Counter("cluster_partial_total").Inc()
		cs.Metrics.Counter("cluster_lost_queries_total").Add(int64(partial.LostKeys()))
		batch.SetStr("partial", partial.String())
	}
	return out, partial, batch
}

// buildPartial folds a batch's shard-unavailable failures into the
// typed PartialResult meta.
func (cs *ClusterSystem) buildPartial(items []BatchItem) *cluster.PartialResult {
	keys := make([]cluster.Key, len(items))
	shards := make([]int, len(items))
	errs := make([]error, len(items))
	for i, item := range items {
		errs[i] = item.Err
		key, ok := cs.routes[item.Spec.StudyID]
		if !ok {
			continue // unroutable items are plain errors, not lost shards
		}
		keys[i] = key
		shards[i] = cs.Cluster.Partitioner().Shard(key)
	}
	return cluster.BuildPartial(cs.Cluster.Shards(), keys, shards, errs)
}

// ConsistentBandRegion computes the population answer — the REGION
// where every listed study has intensities in [bandLo, bandHi] — by
// scatter-gathering per-study band queries across the cluster. When
// shards are lost past retries, the intersection covers the surviving
// studies only and the PartialResult names what is missing; err is
// non-nil only for terminal failures or when no study survived.
func (cs *ClusterSystem) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, *cluster.PartialResult, error) {
	if len(studies) == 0 {
		return nil, nil, fmt.Errorf("qbism: ConsistentBandRegion needs at least one study")
	}
	specs := make([]QuerySpec, len(studies))
	for i, id := range studies {
		specs[i] = QuerySpec{
			StudyID: id, Atlas: "Talairach",
			HasBand: true, BandLo: bandLo, BandHi: bandHi, Encoding: encoding,
		}
	}
	items, partial := cs.RunQueries(specs, workers)
	var regions []*region.Region
	for _, item := range items {
		switch {
		case item.Err == nil:
			// A band query's DataRegion carries exactly the band REGION
			// (Extract preserves the query region).
			regions = append(regions, item.Res.Data.Region)
		case errors.Is(item.Err, cluster.ErrShardUnavailable):
			// Accounted in partial; the intersection degrades gracefully.
		default:
			return nil, partial, fmt.Errorf("qbism: study %d band [%d,%d]: %w",
				item.Spec.StudyID, bandLo, bandHi, item.Err)
		}
	}
	if len(regions) == 0 {
		return nil, partial, fmt.Errorf("qbism: all %d studies lost: %w", len(studies), cluster.ErrShardUnavailable)
	}
	out, err := region.IntersectN(regions...)
	return out, partial, err
}

// BuildActivityIndex builds the population activity index across every
// shard's primary, merging the per-node band REGIONs (each node holds
// only its shard of the corpus) into one R-tree, built exactly as
// System.BuildActivityIndex builds it.
func (cs *ClusterSystem) BuildActivityIndex(minIntensity uint8) (*ActivityIndex, error) {
	bands := make(map[int][]volume.BandSpec)
	for _, nodes := range cs.Nodes {
		for studyID, b := range nodes[0].BandRegions {
			bands[studyID] = b
		}
	}
	return buildActivityIndex(bands, minIntensity)
}
