// Package cluster partitions a study corpus across K shards, each a
// (primary, replica...) set of nodes, and executes reads with
// failover, circuit breaking, and hedging — all on a deterministic
// simulated clock so chaos runs replay byte-for-byte from a seed.
//
// The package is deliberately generic: a node is any
// transport.Transport (a simulated link to a local qbism System, a TCP
// connection to a daemon, a test fake). Each call is priced from the
// node's Stats() delta around it — the simulated latency of the call,
// which drives the cluster's clock, EWMA tracking, and hedging
// decisions; it is exact while a node's calls do not overlap and
// indicative when they do. Routing is by (patient, study) key so a
// study's queries always land on the same shard regardless of which
// front end issues them. A single-node qbism System is a one-shard,
// one-node cluster, so ReadShard is the repo's one client retry loop.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// Key routes a query: every (patient, study) pair maps to exactly one
// shard, so a study's rows are always served by the same node set.
type Key struct {
	Patient int
	Study   int
}

// Hash is a stable FNV-1a over the key's 16-byte little-endian
// encoding, finished with a splitmix64-style avalanche so the low bits
// (which `% K` consumes) are well mixed even for small sequential IDs.
// Stability matters: the hash feeds routing, and must not drift across
// Go versions the way map iteration or maphash would.
func (k Key) Hash() uint64 {
	var buf [16]byte
	p, s := uint64(k.Patient), uint64(k.Study)
	for i := 0; i < 8; i++ {
		buf[i] = byte(p >> (8 * i))
		buf[8+i] = byte(s >> (8 * i))
	}
	h := uint64(14695981039346656037)
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (k Key) String() string { return fmt.Sprintf("p%d/s%d", k.Patient, k.Study) }

// Partitioner maps keys onto K shards.
type Partitioner struct {
	shards int
}

// NewPartitioner builds a partitioner over K shards; K < 1 is clamped
// to 1 (the single-node degenerate case).
func NewPartitioner(shards int) Partitioner {
	if shards < 1 {
		shards = 1
	}
	return Partitioner{shards: shards}
}

// Shards returns K.
func (p Partitioner) Shards() int { return p.shards }

// Shard returns the shard index for a key in [0, K).
func (p Partitioner) Shard(k Key) int {
	return int(k.Hash() % uint64(p.shards))
}

// Config parameterizes a Cluster.
type Config struct {
	// Breaker configures each node's circuit breaker. The zero value
	// disables breaking (reads still fail over, they just keep dialing
	// dead primaries first).
	Breaker BreakerConfig
	// Retry is the failover schedule, used as given: MaxAttempts bounds
	// the calls one Read issues across all of a shard's nodes (values
	// below 1 mean one call, no failover), Backoff/Seed drive the
	// deterministic jittered waits between them (a zero BaseBackoff
	// waits nothing; the clock still advances by per-call quanta), and
	// transport.RetryableError decides which failures fail over.
	Retry transport.RetryPolicy
	// HedgeAfter enables hedged reads: when the serving node's EWMA of
	// simulated latency reaches this threshold, Read also dials the
	// next healthy node and takes the faster answer. Zero disables
	// hedging.
	HedgeAfter time.Duration
	// CallQuantum is the simulated-time cost charged per call on top of
	// reported latency, so the clock advances even when node latency
	// rounds to zero. Defaults to 1ms.
	CallQuantum time.Duration
	// Metrics receives cluster counters and per-node latency
	// histograms; nil disables.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.CallQuantum <= 0 {
		c.CallQuantum = time.Millisecond
	}
	return c
}

// ewmaAlpha weights the simulated-latency moving average; 0.3 tracks a
// node turning slow within a few calls without flapping on one outlier.
const ewmaAlpha = 0.3

// shardState is one shard's node set plus health bookkeeping.
type shardState struct {
	nodes    []transport.Transport
	names    []string
	breakers []*Breaker
	// Per-node metric handles, resolved once (nil without a registry).
	latency []*obs.Histogram
	errs    []*obs.Counter
	ewma    []float64 // guarded by Cluster.mu; simulated ns per call
}

// Cluster executes reads against sharded, replicated nodes.
type Cluster struct {
	cfg    Config
	part   Partitioner
	shards []*shardState

	mu     sync.Mutex
	simNow time.Duration // simulated clock; advances per call + backoff
}

// New builds a cluster over the given node transports, one inner
// slice per shard (index 0 is the primary, the rest replicas). Every
// shard must have at least one node. Nodes are named by position:
// s<shard>p for a primary, s<shard>r<i> for replica i.
func New(cfg Config, shards [][]transport.Transport) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	c := &Cluster{
		cfg:  cfg.withDefaults(),
		part: NewPartitioner(len(shards)),
	}
	for sh, nodes := range shards {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no nodes", sh)
		}
		st := &shardState{nodes: nodes, ewma: make([]float64, len(nodes))}
		for r := range nodes {
			name := nodeName(sh, r)
			st.names = append(st.names, name)
			st.breakers = append(st.breakers, NewBreaker(cfg.Breaker))
			st.latency = append(st.latency, cfg.Metrics.Histogram("cluster_node_latency_seconds_"+name, obs.LatencyBuckets))
			st.errs = append(st.errs, cfg.Metrics.Counter("cluster_node_errors_total_"+name))
		}
		c.shards = append(c.shards, st)
	}
	return c, nil
}

// nodeName follows the s<shard>p / s<shard>r<i> convention.
func nodeName(shard, replica int) string {
	if replica == 0 {
		return fmt.Sprintf("s%dp", shard)
	}
	return fmt.Sprintf("s%dr%d", shard, replica)
}

// Partitioner returns the cluster's routing function.
func (c *Cluster) Partitioner() Partitioner { return c.part }

// Shards returns K.
func (c *Cluster) Shards() int { return len(c.shards) }

// NodeState reports the breaker state of one node, for health
// introspection and tests.
func (c *Cluster) NodeState(shard, node int) BreakerState {
	return c.shards[shard].breakers[node].State()
}

// SimNow returns the simulated clock, for tests and reporting.
func (c *Cluster) SimNow() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simNow
}

// advance moves the simulated clock forward and returns the new now.
func (c *Cluster) advance(d time.Duration) time.Duration {
	c.mu.Lock()
	c.simNow += d
	now := c.simNow
	c.mu.Unlock()
	return now
}

// now reads the simulated clock.
func (c *Cluster) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simNow
}

// observeNode folds a call's simulated latency into the node's EWMA and
// returns the updated average.
func (c *Cluster) observeNode(st *shardState, node int, lat time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := st.ewma[node]
	if prev == 0 {
		st.ewma[node] = float64(lat)
	} else {
		st.ewma[node] = ewmaAlpha*float64(lat) + (1-ewmaAlpha)*prev
	}
	return time.Duration(st.ewma[node])
}

// nodeEWMA reads a node's current latency EWMA.
func (c *Cluster) nodeEWMA(st *shardState, node int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(st.ewma[node])
}

// ReadInfo describes how one read was served — which shard and node,
// how hard the cluster had to work, and how much simulated time it
// cost. It rides alongside the response the way RetryStats rides
// alongside QueryMeta.
type ReadInfo struct {
	// Shard is the shard index that served (or failed) the read.
	Shard int
	// Node is the name of the node whose response was used.
	Node string
	// RetryStats is the read's resilience history; Attempts counts
	// node calls, hedges included.
	transport.RetryStats
	// Failovers counts attempts served by a different node than the
	// previous attempt dialed (the read "switched nodes").
	Failovers int
	// Hedged reports whether a hedge call was issued.
	Hedged bool
	// HedgeWon reports whether the hedge's response was the one used.
	HedgeWon bool
	// LatencySim is the simulated latency of the winning call, call
	// quantum included — what the EWMA and hedging see.
	LatencySim time.Duration
	// Messages and NetSim sum the nodes' Stats() Messages and Latency
	// deltas over every call the read made, without the call quantum.
	Messages uint64
	NetSim   time.Duration
}

// readCall is one read's request and its running account.
type readCall struct {
	method   string
	request  []byte
	validate func([]byte) error
	info     *ReadInfo
}

// Read routes the key to its shard and reads from it. callKey names
// the logical call and seeds the retry jitter as
// transport.JitterSeed(Retry.Seed, callKey), so a call backs off the
// same way whatever the topology. validate, when non-nil, runs on each
// successful response — the served node's first, then a hedge's: a
// reply that fails it counts as a failed call, so a payload tampered
// in flight is retried or fails over like a dropped one.
func (c *Cluster) Read(parent *obs.Span, key Key, callKey, method string, request []byte, validate func([]byte) error) ([]byte, ReadInfo, error) {
	return c.ReadShard(parent, c.part.Shard(key), key, callKey, method, request, validate)
}

// ReadShard executes one read against a specific shard: it dials the
// first breaker-admitted node (primary-first), fails over to the next
// node on retryable errors with capped backoff, hedges against nodes
// whose latency EWMA exceeds HedgeAfter, and returns a typed
// ErrShardUnavailable once attempts are exhausted. Terminal (semantic)
// errors return immediately without failover — another replica would
// give the same answer. A retried attempt is noted on the node that
// failed it (transport.NoteRetry), so link meters reconcile with
// ReadInfo.Retries.
func (c *Cluster) ReadShard(parent *obs.Span, shard int, key Key, callKey, method string, request []byte, validate func([]byte) error) ([]byte, ReadInfo, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, ReadInfo{Shard: shard}, fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, len(c.shards))
	}
	st := c.shards[shard]
	span := parent.Child("cluster.read")
	defer span.End()
	span.SetInt("shard", int64(shard))
	span.SetStr("key", key.String())

	info := ReadInfo{Shard: shard}
	rc := &readCall{method: method, request: request, validate: validate, info: &info}
	pol := c.cfg.Retry
	rng := faultsim.NewRand(transport.JitterSeed(pol.Seed, callKey))
	var lastErr error
	prevNode := -1

	for attempt := 1; ; attempt++ {
		// Pick the first healthy node, preferring the primary, then
		// skipping past the node that just failed so consecutive
		// attempts rotate through the shard.
		node := c.pickNode(st, prevNode)
		info.Attempts++
		if node < 0 {
			// Every breaker is open and refusing probes: charge the
			// quantum so cooldowns eventually elapse, then retry.
			c.advance(c.cfg.CallQuantum)
			lastErr = fmt.Errorf("cluster: shard %d: all %d node(s) circuit-open", shard, len(st.nodes))
			info.LastError = lastErr.Error()
		} else {
			if prevNode >= 0 && node != prevNode {
				info.Failovers++
				c.count("cluster_failover_total", 1)
				span.SetStr("failover", st.names[node])
			}
			// Hedging keys off the EWMA as of *before* this call: a node
			// already known slow gets a racing replica call; the first
			// slow response merely seeds the average.
			priorEWMA := c.nodeEWMA(st, node)
			resp, lat, err := c.callNode(span, st, node, rc)
			if err == nil {
				winner, winLat, hedged, hedgeWon := c.maybeHedge(span, st, node, priorEWMA, rc, lat)
				if hedged {
					info.Attempts++
					info.Hedged = true
					info.HedgeWon = hedgeWon
				}
				info.Node = st.names[winner]
				info.LatencySim = winLat
				span.SetStr("node", info.Node)
				span.SetStr("sim_latency", winLat.String())
				// Replicas hold byte-identical data, so the served
				// node's payload is the answer whichever call won.
				return resp, info, nil
			}
			info.LastError = err.Error()
			lastErr = fmt.Errorf("node %s: %w", st.names[node], err)
			prevNode = node
			if !transport.RetryableError(err) {
				// Terminal: every replica holds identical bytes, so a
				// semantic failure is the answer, not a health problem.
				info.Node = st.names[node]
				span.SetStr("terminal", err.Error())
				return nil, info, fmt.Errorf("cluster: shard %d %s: %w", shard, key, lastErr)
			}
		}
		if attempt >= pol.MaxAttempts {
			break
		}
		info.Retries++
		info.BackoffSim += c.backoffWait(pol, attempt, rng)
		if node >= 0 {
			transport.NoteRetry(st.nodes[node])
		}
	}
	c.count("cluster_shard_unavailable_total", 1)
	span.SetInt("unavailable", 1)
	err := fmt.Errorf("%w: shard %d after %d attempt(s): %w", ErrShardUnavailable, shard, info.Attempts, lastErr)
	return nil, info, err
}

// pickNode returns the index of the first breaker-admitted node,
// starting at the primary but skipping avoid (the node that just
// failed) unless it is the only choice. Returns -1 when every breaker
// refuses.
func (c *Cluster) pickNode(st *shardState, avoid int) int {
	now := c.now()
	// Allow has a side effect — a half-open breaker grants exactly one
	// probe per Allow — so it must only be asked about nodes this pick
	// will actually dial. Checking avoid first keeps a skipped node's
	// probe slot intact for the next pick.
	for i := range st.nodes {
		if i == avoid {
			continue
		}
		if st.breakers[i].Allow(now) {
			return i
		}
	}
	if avoid >= 0 && st.breakers[avoid].Allow(now) {
		return avoid
	}
	return -1
}

// callNode issues one node call, advancing the simulated clock and
// updating breaker + EWMA + per-node metrics, and adds the node's
// Stats() delta around the call to the read's account. The call's
// latency is that delta's Latency. A response that fails validate
// counts as a failed call.
func (c *Cluster) callNode(span *obs.Span, st *shardState, node int, rc *readCall) ([]byte, time.Duration, error) {
	t := st.nodes[node]
	before := t.Stats()
	resp, err := t.Call(span, rc.method, rc.request)
	after := t.Stats()
	lat := after.Latency - before.Latency
	rc.info.Messages += after.Messages - before.Messages
	rc.info.NetSim += lat
	if err == nil && rc.validate != nil {
		err = rc.validate(resp)
	}
	effective := lat + c.cfg.CallQuantum
	now := c.advance(effective)
	st.latency[node].Observe(effective.Seconds())
	if err != nil {
		st.breakers[node].OnFailure(now)
		st.errs[node].Inc()
		return nil, lat, err
	}
	st.breakers[node].OnSuccess()
	c.observeNode(st, node, effective)
	return resp, effective, nil
}

// maybeHedge issues a hedge call when the serving node's EWMA crossed
// HedgeAfter and another healthy node exists; it returns the winning
// node index and latency. Replicas are byte-identical, so "winning" is
// purely a latency race and the hedge's payload is not needed.
func (c *Cluster) maybeHedge(span *obs.Span, st *shardState, served int, priorEWMA time.Duration, rc *readCall, lat time.Duration) (winner int, winLat time.Duration, hedged, hedgeWon bool) {
	winner, winLat = served, lat
	if c.cfg.HedgeAfter <= 0 || len(st.nodes) < 2 {
		return
	}
	if priorEWMA < c.cfg.HedgeAfter {
		return
	}
	alt := c.pickNode(st, served)
	if alt < 0 || alt == served {
		return
	}
	hspan := span.Child("cluster.hedge")
	hspan.SetStr("node", st.names[alt])
	_, altLat, err := c.callNode(hspan, st, alt, rc)
	hspan.End()
	hedged = true
	c.count("cluster_hedged_total", 1)
	if err == nil && altLat < winLat {
		winner, winLat, hedgeWon = alt, altLat, true
	}
	return
}

// backoffWait computes, charges to the clock, and returns one retry's
// simulated backoff.
func (c *Cluster) backoffWait(pol transport.RetryPolicy, attempt int, rng *faultsim.Rand) time.Duration {
	d := pol.Backoff(attempt, rng)
	if d > 0 {
		c.advance(d)
	}
	return d
}

func (c *Cluster) count(name string, delta int64) {
	c.cfg.Metrics.Counter(name).Add(delta)
}
