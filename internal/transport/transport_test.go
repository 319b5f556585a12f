package transport

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/obs"
)

func echoHandler(sp *obs.Span, method string, request []byte) ([]byte, error) {
	return append([]byte(method+":"), request...), nil
}

func TestLocalRoundTrip(t *testing.T) {
	l := NewLocal(echoHandler)
	resp, err := l.Call(nil, "ping", []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping:abc" {
		t.Fatalf("got %q", resp)
	}
	st := l.Stats()
	if st.Calls != 1 || st.Messages != 2 || st.BytesOut != 3 || st.BytesIn != uint64(len(resp)) {
		t.Errorf("stats %+v", st)
	}
	if st.Latency != 0 {
		t.Errorf("local dispatch carries latency %v, want 0", st.Latency)
	}
}

func TestLocalClosedFences(t *testing.T) {
	l := NewLocal(echoHandler)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := l.Call(nil, "ping", nil)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestLocalHandlerErrorCounted(t *testing.T) {
	boom := errors.New("boom")
	l := NewLocal(func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		return nil, boom
	})
	if _, err := l.Call(nil, "x", nil); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if st := l.Stats(); st.Errors != 1 {
		t.Errorf("errors %d, want 1", st.Errors)
	}
}

// flaky fails its first n calls with err, then succeeds.
type flaky struct {
	Local
	failures int
	err      error
	calls    int
}

func (f *flaky) Call(parent *obs.Span, method string, request []byte) ([]byte, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, f.err
	}
	return []byte("ok"), nil
}

func TestCallRetryCuresTransientFailures(t *testing.T) {
	tr := &flaky{failures: 2, err: fmt.Errorf("wrapped: %w", ErrConn)}
	pol := RetryPolicy{MaxAttempts: 5, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Seed: 7}
	resp, st, err := CallRetry(tr, nil, "m", nil, pol, "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" {
		t.Fatalf("got %q", resp)
	}
	if st.Attempts != 3 || st.Retries != 2 {
		t.Errorf("stats %+v, want 3 attempts / 2 retries", st)
	}
	if st.BackoffSim <= 0 {
		t.Error("no simulated backoff accumulated")
	}
	if st.LastError == "" {
		t.Error("LastError must survive an eventual success")
	}
	if tr.Stats().Retries != 2 {
		t.Errorf("transport retry meter %d, want 2", tr.Stats().Retries)
	}
}

func TestCallRetryTerminalFailsFast(t *testing.T) {
	terminal := errors.New("semantic failure")
	tr := &flaky{failures: 99, err: terminal}
	pol := RetryPolicy{MaxAttempts: 5, Seed: 1}
	_, st, err := CallRetry(tr, nil, "m", nil, pol, "key", nil)
	if !errors.Is(err, terminal) {
		t.Fatalf("got %v", err)
	}
	if st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("terminal error retried: %+v", st)
	}
}

func TestCallRetryExhaustion(t *testing.T) {
	tr := &flaky{failures: 99, err: fmt.Errorf("down: %w", ErrDial)}
	pol := RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Seed: 1}
	_, st, err := CallRetry(tr, nil, "m", nil, pol, "key", nil)
	if !errors.Is(err, ErrDial) {
		t.Fatalf("got %v", err)
	}
	if st.Attempts != 3 || st.Retries != 2 {
		t.Errorf("stats %+v, want 3 attempts / 2 retries", st)
	}
}

// TestCallRetryValidateFailureRetried: a response that fails the
// caller's validation is classified and retried exactly like a call
// failure — the loop the query path relies on for corrupt replies.
func TestCallRetryValidateFailureRetried(t *testing.T) {
	tr := &flaky{failures: 0, err: nil}
	calls := 0
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Seed: 1}
	resp, st, err := CallRetry(tr, nil, "m", nil, pol, "key", func(b []byte) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("reply damaged: %w", ErrFrameCorrupt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" || st.Attempts != 3 {
		t.Fatalf("resp %q, stats %+v", resp, st)
	}
}

// TestCallRetryDeterministicBackoff: identical (policy, key) pairs
// back off identically; different keys draw different jitter.
func TestCallRetryDeterministicBackoff(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Seed: 9}
	run := func(key string) time.Duration {
		tr := &flaky{failures: 99, err: fmt.Errorf("x: %w", ErrConn)}
		_, st, _ := CallRetry(tr, nil, "m", nil, pol, key, nil)
		return st.BackoffSim
	}
	if a, b := run("k1"), run("k1"); a != b {
		t.Errorf("same key backed off differently: %v vs %v", a, b)
	}
	if a, b := run("k1"), run("k2"); a == b {
		t.Errorf("different keys drew identical jitter: %v", a)
	}
	// And the schedule matches the policy's own Backoff stream.
	rng := faultsim.NewRand(JitterSeed(pol.Seed, "k1"))
	want := pol.Backoff(1, rng) + pol.Backoff(2, rng) + pol.Backoff(3, rng)
	if got := run("k1"); got != want {
		t.Errorf("backoff %v, want the policy schedule %v", got, want)
	}
}

func TestRetryableErrorClassification(t *testing.T) {
	retryable := []error{
		ErrDial, ErrConn, ErrAdmissionRejected, ErrDraining, ErrRemote,
		ErrFrameTruncated, ErrFrameCorrupt,
		fmt.Errorf("wrapped: %w", ErrConn),
	}
	for _, err := range retryable {
		if !RetryableError(err) {
			t.Errorf("%v should be retryable", err)
		}
	}
	terminal := []error{
		ErrClosed, ErrUnknownMethod, ErrFrameOversize,
		errors.New("unknown study"),
	}
	for _, err := range terminal {
		if RetryableError(err) {
			t.Errorf("%v should be terminal", err)
		}
	}
}

func TestAdmitterTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	a := newAdmitter(AdmissionConfig{Rate: 10, Burst: 3}, clock)

	for i := 0; i < 3; i++ {
		if !a.Allow("c1") {
			t.Fatalf("burst call %d rejected", i)
		}
	}
	if a.Allow("c1") {
		t.Fatal("call past burst admitted")
	}
	// Other clients have their own buckets.
	if !a.Allow("c2") {
		t.Fatal("independent client rejected")
	}
	// 100ms at 10/s refills one token.
	now = now.Add(100 * time.Millisecond)
	if !a.Allow("c1") {
		t.Fatal("refilled token rejected")
	}
	if a.Allow("c1") {
		t.Fatal("second call after single-token refill admitted")
	}
	// Refill caps at Burst however long the idle period.
	now = now.Add(time.Hour)
	admitted := 0
	for a.Allow("c1") {
		admitted++
	}
	if admitted != 3 {
		t.Fatalf("after long idle, %d calls admitted, want Burst=3", admitted)
	}
}

func TestAdmitterDisabled(t *testing.T) {
	a := newAdmitter(AdmissionConfig{}, func() time.Time { return time.Unix(0, 0) })
	for i := 0; i < 1000; i++ {
		if !a.Allow("anyone") {
			t.Fatal("disabled admission rejected a call")
		}
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Calls: 5, Errors: 2, Messages: 10, BytesOut: 100, BytesIn: 200, Retries: 3, Latency: time.Second}
	b := Stats{Calls: 2, Errors: 1, Messages: 4, BytesOut: 40, BytesIn: 80, Retries: 1, Latency: 300 * time.Millisecond}
	d := a.Sub(b)
	want := Stats{Calls: 3, Errors: 1, Messages: 6, BytesOut: 60, BytesIn: 120, Retries: 2, Latency: 700 * time.Millisecond}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("Sub = %+v, want %+v", d, want)
	}
}

// TestStatsSubFaults: Sub takes deltas of the fault counters too, and
// drops methods whose per-method delta is zero.
func TestStatsSubFaults(t *testing.T) {
	a := Stats{Faults: Faults{Drops: 4, Timeouts: 3, Corruptions: 2, Tampers: 2},
		Latencies: 5, LatencySim: 9 * time.Millisecond,
		PerMethod: map[string]Faults{
			"q": {Drops: 4, Timeouts: 3, Corruptions: 2, Tampers: 2},
			"r": {Drops: 1},
		}}
	b := Stats{Faults: Faults{Drops: 1, Timeouts: 1, Corruptions: 1, Tampers: 1},
		Latencies: 2, LatencySim: 4 * time.Millisecond,
		PerMethod: map[string]Faults{
			"q": {Drops: 2, Timeouts: 1},
			"r": {Drops: 1}, // delta zero: must be omitted
		}}
	d := a.Sub(b)
	want := Stats{Faults: Faults{Drops: 3, Timeouts: 2, Corruptions: 1, Tampers: 1},
		Latencies: 3, LatencySim: 5 * time.Millisecond,
		PerMethod: map[string]Faults{"q": {Drops: 2, Timeouts: 2, Corruptions: 2, Tampers: 2}},
	}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("Sub = %+v, want %+v", d, want)
	}
}
