package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"qbism/internal/obs"
	"qbism/internal/transport"
)

// errFlaky is a transient failure (transport.RetryableError says
// retry); errSemantic is terminal.
var errFlaky = fmt.Errorf("flaky node: %w", transport.ErrConn)
var errSemantic = errors.New("unknown study")

// fakeNode is a transport that answers from a script: each call
// consumes the next entry and costs lat of simulated latency. The
// cluster names nodes by position (s0p, s0r1, ...).
type fakeNode struct {
	resp    []byte
	lat     time.Duration
	failSeq []error // per-call errors; nil entry = success; exhausted = success
	calls   int
	stats   transport.Stats
}

func (f *fakeNode) Call(parent *obs.Span, method string, request []byte) ([]byte, error) {
	i := f.calls
	f.calls++
	f.stats.Calls++
	f.stats.Latency += f.lat
	if i < len(f.failSeq) && f.failSeq[i] != nil {
		f.stats.Errors++
		return nil, fmt.Errorf("call %d: %w", i+1, f.failSeq[i])
	}
	return f.resp, nil
}

func (f *fakeNode) Stats() transport.Stats { return f.stats }

func (f *fakeNode) Close() error { return nil }

func alwaysFail(err error) []error {
	seq := make([]error, 64)
	for i := range seq {
		seq[i] = err
	}
	return seq
}

func testConfig() Config {
	return Config{
		Retry:       transport.RetryPolicy{MaxAttempts: 4},
		CallQuantum: time.Millisecond,
	}
}

func TestReadPrimaryHappyPath(t *testing.T) {
	p := &fakeNode{resp: []byte("primary")}
	r := &fakeNode{resp: []byte("primary")}
	c, err := New(testConfig(), [][]transport.Transport{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	resp, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", []byte("req"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "primary" {
		t.Fatalf("resp = %q", resp)
	}
	if info.Node != "s0p" || info.Attempts != 1 || info.Failovers != 0 {
		t.Fatalf("info = %+v", info)
	}
	if r.calls != 0 {
		t.Fatalf("replica dialed %d times on happy path", r.calls)
	}
}

func TestReadFailsOverToReplica(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	p := &fakeNode{failSeq: alwaysFail(errFlaky)}
	r := &fakeNode{resp: []byte("rows")}
	c, err := New(cfg, [][]transport.Transport{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	resp, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "rows" {
		t.Fatalf("resp = %q", resp)
	}
	if info.Node != "s0r1" {
		t.Fatalf("served by %q, want replica", info.Node)
	}
	if info.Failovers != 1 || info.Attempts != 2 || info.Retries != 1 {
		t.Fatalf("info = %+v", info)
	}
	if got := reg.Counter("cluster_failover_total").Value(); got != 1 {
		t.Fatalf("cluster_failover_total = %d, want 1", got)
	}
}

// TestReadValidateFailureFailsOver: a reply that fails validation (a
// payload tampered in flight) is a failed call — the breaker and error
// counters see it and the read fails over to the replica.
func TestReadValidateFailureFailsOver(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	p := &fakeNode{resp: []byte("tampered")}
	r := &fakeNode{resp: []byte("rows")}
	c, err := New(cfg, [][]transport.Transport{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	validate := func(b []byte) error {
		if string(b) != "rows" {
			return fmt.Errorf("bad reply: %w", transport.ErrFrameCorrupt)
		}
		return nil
	}
	resp, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, validate)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "rows" || info.Node != "s0r1" || info.Failovers != 1 {
		t.Fatalf("resp = %q, info = %+v; want the replica's rows after one failover", resp, info)
	}
	if got := reg.Counter("cluster_node_errors_total_s0p").Value(); got != 1 {
		t.Fatalf("cluster_node_errors_total_s0p = %d, want 1", got)
	}
}

func TestReadExhaustionIsTypedUnavailable(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	p := &fakeNode{failSeq: alwaysFail(errFlaky)}
	r := &fakeNode{failSeq: alwaysFail(errFlaky)}
	c, err := New(cfg, [][]transport.Transport{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := c.Read(nil, Key{Patient: 2, Study: 2}, "q", nil, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, not ErrShardUnavailable", err)
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("underlying cause lost from chain: %v", err)
	}
	if info.Attempts != cfg.Retry.MaxAttempts {
		t.Fatalf("attempts = %d, want %d", info.Attempts, cfg.Retry.MaxAttempts)
	}
	if got := reg.Counter("cluster_shard_unavailable_total").Value(); got != 1 {
		t.Fatalf("cluster_shard_unavailable_total = %d, want 1", got)
	}
}

func TestReadTerminalErrorNoFailover(t *testing.T) {
	p := &fakeNode{failSeq: alwaysFail(errSemantic)}
	r := &fakeNode{resp: []byte("never")}
	c, err := New(testConfig(), [][]transport.Transport{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := c.Read(nil, Key{Patient: 3, Study: 3}, "q", nil, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("semantic error misclassified as unavailable: %v", err)
	}
	if !errors.Is(err, errSemantic) {
		t.Fatalf("cause lost: %v", err)
	}
	if info.Attempts != 1 || r.calls != 0 {
		t.Fatalf("terminal error retried: info=%+v replicaCalls=%d", info, r.calls)
	}
}

func TestReadBreakerSkipsDeadPrimary(t *testing.T) {
	cfg := testConfig()
	cfg.Breaker = BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}
	p := &fakeNode{failSeq: alwaysFail(errFlaky)}
	r := &fakeNode{resp: []byte("ok")}
	c, err := New(cfg, [][]transport.Transport{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	// Two reads trip the primary's breaker (one failure each).
	for i := 0; i < 2; i++ {
		if _, _, err := c.Read(nil, Key{Patient: 1, Study: i}, "q", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.NodeState(0, 0); got != BreakerOpen {
		t.Fatalf("primary breaker = %v, want open", got)
	}
	dialed := p.calls
	// Subsequent reads go straight to the replica without dialing the
	// dead primary.
	if _, info, err := c.Read(nil, Key{Patient: 1, Study: 9}, "q", nil, nil); err != nil {
		t.Fatal(err)
	} else if info.Node != "s0r1" || info.Attempts != 1 {
		t.Fatalf("info = %+v", info)
	}
	if p.calls != dialed {
		t.Fatalf("open breaker still dialed primary (%d -> %d)", dialed, p.calls)
	}
}

func TestReadBreakerHalfOpenRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.Breaker = BreakerConfig{FailureThreshold: 1, Cooldown: 5 * time.Millisecond}
	// Primary fails twice then recovers.
	p := &fakeNode{resp: []byte("ok"), failSeq: []error{errFlaky, errFlaky}}
	r := &fakeNode{resp: []byte("ok")}
	c, err := New(cfg, [][]transport.Transport{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeState(0, 0); got != BreakerOpen {
		t.Fatalf("primary breaker = %v, want open", got)
	}
	// Each read advances the simulated clock by >= 1ms; after the 5ms
	// cooldown the primary gets a half-open probe, which succeeds once
	// its failSeq is exhausted, closing the breaker.
	var served string
	for i := 0; i < 30 && served != "s0p"; i++ {
		_, info, err := c.Read(nil, Key{Patient: 1, Study: 100 + i}, "q", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		served = info.Node
	}
	if served != "s0p" {
		t.Fatalf("primary never recovered; breaker = %v", c.NodeState(0, 0))
	}
	if got := c.NodeState(0, 0); got != BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", got)
	}
}

func TestReadHedgesAgainstSlowNode(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	cfg.HedgeAfter = 10 * time.Millisecond
	slow := &fakeNode{resp: []byte("rows"), lat: 50 * time.Millisecond}
	fast := &fakeNode{resp: []byte("rows")}
	c, err := New(cfg, [][]transport.Transport{{slow, fast}})
	if err != nil {
		t.Fatal(err)
	}
	// First read seeds the slow node's EWMA above the hedge threshold;
	// the second read hedges and the replica wins the latency race.
	if _, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, nil); err != nil {
		t.Fatal(err)
	} else if info.Hedged {
		t.Fatalf("hedged before EWMA had data: %+v", info)
	}
	_, info, err := c.Read(nil, Key{Patient: 1, Study: 2}, "q", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hedged || !info.HedgeWon {
		t.Fatalf("info = %+v, want hedged win", info)
	}
	if info.Node != "s0r1" {
		t.Fatalf("winner = %q, want fast replica", info.Node)
	}
	if info.LatencySim >= 50*time.Millisecond {
		t.Fatalf("winning latency %v not better than slow node", info.LatencySim)
	}
	if got := reg.Counter("cluster_hedged_total").Value(); got != 1 {
		t.Fatalf("cluster_hedged_total = %d, want 1", got)
	}
}

func TestReadBackoffDeterministic(t *testing.T) {
	run := func() (ReadInfo, time.Duration) {
		cfg := testConfig()
		cfg.Retry.Seed = 42
		cfg.Retry.BaseBackoff = 10 * time.Millisecond
		cfg.Retry.MaxBackoff = time.Second
		p := &fakeNode{failSeq: []error{errFlaky, errFlaky}}
		r := &fakeNode{failSeq: []error{errFlaky}, resp: []byte("ok")}
		c, err := New(cfg, [][]transport.Transport{{p, r}})
		if err != nil {
			t.Fatal(err)
		}
		_, info, err := c.Read(nil, Key{Patient: 5, Study: 5}, "q", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return info, c.SimNow()
	}
	a, simA := run()
	b, simB := run()
	if a != b {
		t.Fatalf("ReadInfo diverged:\n  %+v\n  %+v", a, b)
	}
	if simA != simB {
		t.Fatalf("simulated clock diverged: %v vs %v", simA, simB)
	}
	if a.BackoffSim <= 0 {
		t.Fatalf("no backoff charged: %+v", a)
	}
}

func TestNewRejectsBadTopology(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("New accepted zero shards")
	}
	if _, err := New(Config{}, [][]transport.Transport{{}}); err == nil {
		t.Fatal("New accepted empty shard")
	}
}

func TestReadShardOutOfRange(t *testing.T) {
	c, err := New(testConfig(), [][]transport.Transport{{&fakeNode{}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadShard(nil, 7, Key{}, "q", nil, nil); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

func TestBuildPartial(t *testing.T) {
	keys := []Key{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	shards := []int{2, 0, 2, 1}
	unavailable := fmt.Errorf("%w: gone", ErrShardUnavailable)
	errs := []error{unavailable, nil, unavailable, errSemantic}
	p := BuildPartial(3, keys, shards, errs)
	if p == nil {
		t.Fatal("nil partial")
	}
	if p.TotalShards != 3 {
		t.Fatalf("TotalShards = %d", p.TotalShards)
	}
	if got := p.LostShards(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("LostShards = %v, want [2]", got)
	}
	if p.LostKeys() != 2 {
		t.Fatalf("LostKeys = %d, want 2", p.LostKeys())
	}
	if len(p.Failed[0].Keys) != 2 || p.Failed[0].Keys[0] != (Key{1, 1}) {
		t.Fatalf("Failed[0].Keys = %v", p.Failed[0].Keys)
	}
	if s := p.String(); s == "complete" {
		t.Fatalf("String() = %q", s)
	}
}

func TestBuildPartialNilWhenComplete(t *testing.T) {
	if p := BuildPartial(2, []Key{{1, 1}}, []int{0}, []error{nil}); p != nil {
		t.Fatalf("partial = %v, want nil", p)
	}
	// Non-unavailable errors are not the partial's business.
	if p := BuildPartial(2, []Key{{1, 1}}, []int{0}, []error{errSemantic}); p != nil {
		t.Fatalf("partial = %v, want nil", p)
	}
	var nilP *PartialResult
	if nilP.String() != "complete" || nilP.LostKeys() != 0 || nilP.LostShards() != nil {
		t.Fatal("nil PartialResult accessors not safe")
	}
}

func TestBuildPartialSortsShards(t *testing.T) {
	unavailable := fmt.Errorf("%w: gone", ErrShardUnavailable)
	keys := []Key{{1, 1}, {2, 2}, {3, 3}}
	shards := []int{2, 0, 1}
	errs := []error{unavailable, unavailable, unavailable}
	p := BuildPartial(3, keys, shards, errs)
	if got := p.LostShards(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("LostShards = %v, want ascending", got)
	}
}
