package transport

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qbism/internal/obs"
)

// transportGoroutines counts live goroutines parked in this package's
// server code — the leak detector for drain tests.
func transportGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	stacks := string(buf[:n])
	count := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "transport.(*Server).serveConn") ||
			strings.Contains(g, "transport.(*Server).acceptLoop") {
			count++
		}
	}
	return count
}

func waitNoServerGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if transportGoroutines() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("server goroutines leaked after drain:\n%s", buf[:n])
}

// TestDrainGraceful: inflight calls complete, new dials are refused,
// idle connections close, and no server goroutine outlives the drain.
func TestDrainGraceful(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte("done"), nil
	}, ServerConfig{})

	// One connection mid-call when the drain starts.
	busy := dialServer(t, srv)
	type result struct {
		resp []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := busy.Call(nil, "slow", nil)
		resCh <- result{resp, err}
	}()
	<-started

	// One idle connection (dialed, one completed exchange... none —
	// dial is lazy, so force the connection with a raw dial).
	idle, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(10 * time.Second) }()

	// Drain must not complete while the call is inflight.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a call still inflight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// New dials are refused once the listener is down.
	if _, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second); err == nil {
		t.Error("new dial succeeded during drain")
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-resCh
	if r.err != nil || string(r.resp) != "done" {
		t.Fatalf("inflight call: resp %q err %v — drain must let inflight work finish", r.resp, r.err)
	}
	// The idle connection was closed by the drain.
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Error("idle connection still open after drain")
	}
	waitNoServerGoroutines(t)
}

// waitParked blocks until every connection the server holds is idle:
// its serve loop has finished the post-call drain check and is back in
// ReadFrame. busy is cleared in the same critical section as that
// check, so observing busy == false under sc.mu means the check ran.
// The connection list is copied first: serveConn takes sc.mu before
// s.mu, so holding s.mu while locking a conn would invert that order.
func waitParked(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		conns := make([]*serverConn, 0, len(srv.conns))
		for sc := range srv.conns {
			conns = append(conns, sc)
		}
		srv.mu.Unlock()
		parked := len(conns) > 0
		for _, sc := range conns {
			sc.mu.Lock()
			parked = parked && !sc.busy && !sc.closed
			sc.mu.Unlock()
		}
		if parked {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server connection never parked back in ReadFrame")
}

// TestDrainRejectsNewCallsOnLiveConnections: a request that lands on a
// still-open connection after the draining flag flips gets a typed
// ErrDraining reply, counted in DrainRejected. In production this is a
// race window (Drain closes idle connections almost immediately after
// setting the flag); the test pins the window open by flipping the
// flag directly instead of running the full Drain. The flag flips only
// once the connection is parked: flipped earlier, the serve loop's
// post-call check would close the connection without reading the next
// request (see DESIGN.md §14), and the client would see a reset.
func TestDrainRejectsNewCallsOnLiveConnections(t *testing.T) {
	srv := startServer(t, echoHandler, ServerConfig{})
	c := dialServer(t, srv)
	if _, err := c.Call(nil, "ping", nil); err != nil {
		t.Fatal(err)
	}
	waitParked(t, srv)

	srv.mu.Lock()
	srv.draining = true
	srv.mu.Unlock()

	_, err := c.Call(nil, "ping", nil)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("call into a draining server: %v, want ErrDraining", err)
	}
	if !RetryableError(err) {
		t.Error("draining rejection must be retryable (another replica may serve it)")
	}
	if got := srv.Stats().DrainRejected; got != 1 {
		t.Errorf("drain-rejected count %d, want 1", got)
	}
}

// TestDrainDeadlineForceCloses: a handler that never returns trips the
// drain deadline; the connection is force-closed and Drain reports
// ErrDrainTimeout.
func TestDrainDeadlineForceCloses(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		started <- struct{}{}
		<-release // never released before the drain deadline
		return nil, nil
	}, ServerConfig{})

	c := dialServer(t, srv)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(nil, "stuck", nil)
		errCh <- err
	}()
	<-started

	err := srv.Drain(200 * time.Millisecond)
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("drain of a stuck handler: %v, want ErrDrainTimeout", err)
	}
	// The client's call fails once its connection is force-closed...
	// eventually: the handler goroutine is still parked on release, so
	// only the socket died. The client read returns.
	select {
	case cerr := <-errCh:
		if cerr == nil {
			t.Error("call on a force-closed connection succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client call never returned after force-close")
	}
}

// TestDrainIdempotentclose: Close after Drain is safe.
func TestDrainThenClose(t *testing.T) {
	srv := startServer(t, echoHandler, ServerConfig{})
	c := dialServer(t, srv)
	if _, err := c.Call(nil, "ping", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoServerGoroutines(t)
}

// TestServerBoundedPool: with MaxConns=2, a third concurrent
// connection waits in the accept queue instead of spawning a goroutine
// — and is served once a slot frees.
func TestServerBoundedPool(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte("ok"), nil
	}, ServerConfig{MaxConns: 2})

	var wg sync.WaitGroup
	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := DialTCP(srv.Addr().String(), TCPOptions{})
			defer c.Close()
			_, err := c.Call(nil, "slow", nil)
			results <- err
		}()
	}
	// Exactly two handlers start; the third connection queues.
	<-started
	<-started
	select {
	case <-started:
		t.Fatal("third connection served past MaxConns=2")
	case <-time.After(200 * time.Millisecond):
	}
	if got := srv.Stats().Active; got != 2 {
		t.Errorf("active %d, want 2", got)
	}
	close(release)
	wg.Wait()
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Errorf("pooled call: %v", err)
		}
	}
}
