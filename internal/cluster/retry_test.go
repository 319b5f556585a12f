package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// A single-node System is a one-shard, one-node cluster, so ReadShard
// is its retry loop too. These tests pin that loop's single-node
// contract: transient failures retried with the policy's schedule,
// terminal ones returned at once, exhaustion typed, validation
// failures retried like call failures, and the jitter stream keyed by
// the caller's call key.

// oneNode builds a one-shard, one-node cluster over t with the given
// retry policy (used as given, as a System passes its own).
func oneNode(tb testing.TB, t transport.Transport, pol transport.RetryPolicy) *Cluster {
	tb.Helper()
	c, err := New(Config{Retry: pol}, [][]transport.Transport{{t}})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestOneNodeReadCuresTransientFailures(t *testing.T) {
	node := &fakeNode{resp: []byte("ok"), failSeq: []error{errFlaky, errFlaky}}
	pol := transport.RetryPolicy{MaxAttempts: 5, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Seed: 7}
	resp, info, err := oneNode(t, node, pol).Read(nil, Key{Patient: 1, Study: 1}, "key", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" {
		t.Fatalf("got %q", resp)
	}
	if info.Attempts != 3 || info.Retries != 2 {
		t.Errorf("info %+v, want 3 attempts / 2 retries", info)
	}
	if info.BackoffSim <= 0 {
		t.Error("no simulated backoff accumulated")
	}
	if info.LastError == "" {
		t.Error("LastError must survive an eventual success")
	}
	if node.Stats().Retries != 2 {
		t.Errorf("node retry meter %d, want 2", node.Stats().Retries)
	}
}

func TestOneNodeReadTerminalFailsFast(t *testing.T) {
	node := &fakeNode{failSeq: alwaysFail(errSemantic)}
	pol := transport.RetryPolicy{MaxAttempts: 5, Seed: 1}
	_, info, err := oneNode(t, node, pol).Read(nil, Key{Patient: 1, Study: 1}, "key", "m", nil, nil)
	if !errors.Is(err, errSemantic) {
		t.Fatalf("got %v", err)
	}
	if info.Attempts != 1 || info.Retries != 0 {
		t.Errorf("terminal error retried: %+v", info)
	}
}

func TestOneNodeReadExhaustion(t *testing.T) {
	down := fmt.Errorf("down: %w", transport.ErrDial)
	node := &fakeNode{failSeq: alwaysFail(down)}
	pol := transport.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Seed: 1}
	_, info, err := oneNode(t, node, pol).Read(nil, Key{Patient: 1, Study: 1}, "key", "m", nil, nil)
	if !errors.Is(err, transport.ErrDial) || !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("got %v", err)
	}
	if info.Attempts != 3 || info.Retries != 2 {
		t.Errorf("info %+v, want 3 attempts / 2 retries", info)
	}
}

// TestOneNodeReadValidateFailureRetried: a response that fails the
// caller's validation is classified and retried exactly like a call
// failure — the loop the query path relies on for corrupt replies.
func TestOneNodeReadValidateFailureRetried(t *testing.T) {
	node := &fakeNode{resp: []byte("ok")}
	calls := 0
	pol := transport.RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Seed: 1}
	resp, info, err := oneNode(t, node, pol).Read(nil, Key{Patient: 1, Study: 1}, "key", "m", nil, func(b []byte) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("reply damaged: %w", transport.ErrFrameCorrupt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" || info.Attempts != 3 {
		t.Fatalf("resp %q, info %+v", resp, info)
	}
}

// TestOneNodeReadBackoffDeterministicPerCallKey: identical (policy,
// call key) pairs back off identically; different call keys draw
// different jitter, whatever the routing key.
func TestOneNodeReadBackoffDeterministicPerCallKey(t *testing.T) {
	pol := transport.RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Seed: 9}
	run := func(callKey string) time.Duration {
		node := &fakeNode{failSeq: alwaysFail(errFlaky)}
		_, info, _ := oneNode(t, node, pol).Read(nil, Key{Patient: 1, Study: 1}, callKey, "m", nil, nil)
		return info.BackoffSim
	}
	if a, b := run("k1"), run("k1"); a != b {
		t.Errorf("same call key backed off differently: %v vs %v", a, b)
	}
	if a, b := run("k1"), run("k2"); a == b {
		t.Errorf("different call keys drew identical jitter: %v", a)
	}
	// And the schedule matches the policy's own Backoff stream.
	rng := faultsim.NewRand(transport.JitterSeed(pol.Seed, "k1"))
	want := pol.Backoff(1, rng) + pol.Backoff(2, rng) + pol.Backoff(3, rng)
	if got := run("k1"); got != want {
		t.Errorf("backoff %v, want the policy schedule %v", got, want)
	}
}

// TestOneNodeReadOverTCP: the retry loop rides a real socket.
func TestOneNodeReadOverTCP(t *testing.T) {
	srv := transport.NewServer(func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		return append([]byte(method+":"), request...), nil
	}, transport.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := transport.DialTCP(srv.Addr().String(), transport.TCPOptions{CallTimeout: 10 * time.Second})
	defer c.Close()
	pol := transport.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Seed: 5}
	resp, info, err := oneNode(t, c, pol).Read(nil, Key{Patient: 1, Study: 1}, "q", "ping", []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping:x" || info.Attempts != 1 {
		t.Fatalf("resp %q info %+v", resp, info)
	}
	if info.Messages != 2 || info.NetSim <= 0 {
		t.Errorf("read account %d messages / %v, want the call's metered delta", info.Messages, info.NetSim)
	}
}

// rendezvousNode blocks every call until want calls are in flight at
// once, then answers them all.
type rendezvousNode struct {
	fakeNode
	want     int
	mu       sync.Mutex
	inFlight int
	all      chan struct{}
}

func (r *rendezvousNode) Call(parent *obs.Span, method string, request []byte) ([]byte, error) {
	r.mu.Lock()
	r.inFlight++
	if r.inFlight == r.want {
		close(r.all)
	}
	r.mu.Unlock()
	<-r.all
	return []byte("ok"), nil
}

// TestConcurrentReadsOfOneNodeOverlap: the cluster does not serialize a
// node's calls — two concurrent reads of one node are both in flight
// at once. A per-node call lock would leave the second read waiting
// for the first, which waits for the second, until the deadline.
func TestConcurrentReadsOfOneNodeOverlap(t *testing.T) {
	node := &rendezvousNode{want: 2, all: make(chan struct{})}
	c := oneNode(t, node, transport.RetryPolicy{MaxAttempts: 1})
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, _, err := c.Read(nil, Key{Patient: 1, Study: i}, fmt.Sprint(i), "m", nil, nil)
			done <- err
		}(i)
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("the two reads never overlapped: the node's calls are serialized")
		}
	}
}
