package qbism

// Sharded execution: the study corpus partitioned across K shards,
// each a (primary, replica...) set of full QBISM nodes — its own LFM
// device, database, and simulated link — each reached by the cluster
// through a transport.Transport. The front end (routing, the cluster
// read loop, DX cache, cost model, observability) is the single-node
// System's frontEnd over a bigger cluster, so a query runs identically
// whether it was fetched over one link or scatter-gathered across a
// degraded cluster.
//
// Determinism: every node synthesizes its shard of the corpus from the
// same global (ID, seed) enumeration (Config.OnlyStudies), so a shard's
// replicas — and the same studies in an unsharded system — hold
// byte-identical REGIONs. Replica failover therefore returns
// byte-identical answers, and the degraded-shard chaos suite can assert
// exact equality against an unsharded control system.

import (
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
// System — RunQuery, RunQueries, ConsistentBandRegion — plus the
// PartialResult naming any shard lost past retries.
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

	front *frontEnd
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
	cs := &ClusterSystem{Cfg: cfg}
	routes := make(map[int]cluster.Key)
	perShard := make([][]int, cfg.Shards)
	for i := 0; i < base.NumPET+base.NumMRI; i++ {
		info := StudyInfo{StudyID: i + 1, PatientID: i + 1, Modality: modalityFor(base, i)}
		key := cluster.Key{Patient: info.PatientID, Study: info.StudyID}
		sh := part.Shard(key)
		routes[info.StudyID] = key
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
	cs.front = &frontEnd{
		cluster: cl, routes: routes, workers: cfg.Workers, curve: cs.Nodes[0][0].Curve,
		cache: cs.Cache, model: cs.Model, tracer: cs.Tracer, metrics: cs.Metrics,
		slowLog: cs.SlowLog, slowThresh: base.SlowLogThreshold,
	}
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
	key, err := cs.front.key(studyID)
	if err != nil {
		return 0, false
	}
	return cs.Cluster.Partitioner().Shard(key), true
}

// RunQuery executes one query end to end through the cluster: route by
// (patient, study) key, read with failover/hedging, then finish through
// the shared front end. The result's Shard field reports how the read
// was served.
func (cs *ClusterSystem) RunQuery(spec QuerySpec) (*QueryResult, error) {
	return cs.front.runQuery(nil, spec)
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
	return cs.front.runQueries(specs, workers)
}

// ConsistentBandRegion computes the population answer — the REGION
// where every listed study has intensities in [bandLo, bandHi] — by
// scatter-gathering per-study band-REGION reads across the cluster.
// When shards are lost past retries, the intersection covers the
// surviving studies only and the PartialResult names what is missing;
// err is non-nil only for terminal failures or when no study survived.
func (cs *ClusterSystem) ConsistentBandRegion(studies []int, bandLo, bandHi int, encoding string, workers int) (*region.Region, *cluster.PartialResult, error) {
	return cs.front.consistentBandRegion(studies, bandLo, bandHi, encoding, workers)
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
