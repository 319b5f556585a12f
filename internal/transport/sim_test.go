package transport

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/obs"
)

// The sim flavor's contract: every payload crossing is metered and
// priced with the cost model (lost payloads included), seeded faults
// fire per crossing in call order and come back typed, and each round
// trip is traced as rpc.<method> ⊃ {net.request, server, net.response}.

// echoSim is a sim link whose handler echoes the request under "echo"
// (with a "work" span under the server span), answers "blob" with
// 10 KB, "empty" with nothing, and refuses any other method the way
// System.ServeRPC does.
func echoSim() *Sim {
	return NewSim(func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		switch method {
		case "echo":
			sp.Child("work").End()
			return append([]byte("re:"), request...), nil
		case "blob":
			return make([]byte, 10*1024), nil
		case "empty":
			return nil, nil
		default:
			return nil, fmt.Errorf("test server: %w: %q", ErrUnknownMethod, method)
		}
	}, costmodel.Default1993())
}

func TestSimCallRoundTrip(t *testing.T) {
	s := echoSim()
	resp, err := s.Call(nil, "echo", []byte("hello"))
	if err != nil || string(resp) != "re:hello" {
		t.Fatalf("Call = %q, %v", resp, err)
	}
	st := s.Stats()
	if st.Calls != 1 || st.Errors != 0 || st.BytesOut != 5 || st.BytesIn != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimUnknownMethodTyped(t *testing.T) {
	s := echoSim()
	_, err := s.Call(nil, "nope", nil)
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v, want ErrUnknownMethod", err)
	}
	if RetryableError(err) {
		t.Error("unknown method must be terminal")
	}
}

// TestSimDelegatesToLink: the handler answers every call, and the
// seam's Stats prices the message meter with the model plus injected
// latency — the figure the query path and the cluster take deltas of.
func TestSimDelegatesToLink(t *testing.T) {
	model := costmodel.Default1993()
	s := echoSim()
	s.SetFaults(faultsim.New(faultsim.Policy{
		ExtraLatency: 7 * time.Millisecond,
		Schedule:     []faultsim.Scheduled{{Op: 2, Kind: faultsim.Latency}},
	}))
	resp, err := s.Call(nil, "echo", []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:xyz" {
		t.Fatalf("got %q", resp)
	}
	st := s.Stats()
	want := model.NetworkTime(st.Messages) + 7*time.Millisecond
	if st.Latency != want || st.LatencySim != 7*time.Millisecond {
		t.Errorf("Stats.Latency = %v (injected %v), want %v", st.Latency, st.LatencySim, want)
	}
}

// TestSimHandlerErrorNotMetered: a handler failure sends no response,
// so only the request crossing is metered.
func TestSimHandlerErrorNotMetered(t *testing.T) {
	model := costmodel.Default1993()
	boom := errors.New("boom")
	s := NewSim(func(*obs.Span, string, []byte) ([]byte, error) { return nil, boom }, model)
	if _, err := s.Call(nil, "fail", []byte("xx")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st := s.Stats()
	if st.Calls != 1 || st.Errors != 1 || st.BytesOut != 2 || st.BytesIn != 0 || st.Messages != model.Messages(2) {
		t.Errorf("stats = %+v", st)
	}
}

// TestSimMessageAccounting: each crossing is priced separately by the
// model, and Stats().Latency is the model's network time for them.
func TestSimMessageAccounting(t *testing.T) {
	m := costmodel.Default1993()
	s := echoSim()
	if _, err := s.Call(nil, "blob", nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	want := m.Messages(0) + m.Messages(10*1024)
	if st.Messages != want {
		t.Errorf("messages = %d, want %d", st.Messages, want)
	}
	if st.Latency != m.NetworkTime(want) || st.Latency <= 0 {
		t.Errorf("Latency = %v, want %v", st.Latency, m.NetworkTime(want))
	}
}

// TestSimLostPayloadsMetered: a dropped payload still counts — the
// bytes were sent. A lost request is metered on the way out; a lost
// response on the way back.
func TestSimLostPayloadsMetered(t *testing.T) {
	m := costmodel.Default1993()
	s := echoSim()
	s.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.Drop}, // call 1: request lost
		{Op: 3, Kind: faultsim.Drop}, // call 2: response lost (op 2 = its request)
	}}))
	if _, err := s.Call(nil, "echo", []byte("abcd")); !errors.Is(err, ErrDropped) {
		t.Fatalf("call 1: %v", err)
	}
	st := s.Stats()
	if st.BytesOut != 4 || st.BytesIn != 0 || st.Messages != m.Messages(4) || st.Errors != 1 {
		t.Errorf("after lost request: %+v", st)
	}
	if _, err := s.Call(nil, "echo", []byte("abcd")); !errors.Is(err, ErrDropped) {
		t.Fatalf("call 2: %v", err)
	}
	st = s.Stats()
	if st.BytesOut != 8 || st.BytesIn != 7 || st.Messages != 2*m.Messages(4)+m.Messages(7) || st.Errors != 2 {
		t.Errorf("after lost response: %+v", st)
	}
	if st.Drops != 2 || st.PerMethod["echo"].Drops != 2 {
		t.Errorf("drop counters = %+v", st)
	}
}

func TestSimConcurrentCalls(t *testing.T) {
	s := echoSim()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Call(nil, "echo", []byte{1}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Calls != 50 || st.BytesOut != 50 || st.BytesIn != 50*4 {
		t.Errorf("stats = %+v, want 50 calls", st)
	}
}

// TestSimConcurrentCallsUnderFaults: a faulty link stays race-free and
// never panics; every call either succeeds or fails typed.
func TestSimConcurrentCallsUnderFaults(t *testing.T) {
	s := echoSim()
	s.SetFaults(faultsim.New(faultsim.Policy{
		Seed: 11, DropProb: 0.1, TimeoutProb: 0.1, CorruptProb: 0.1, TamperProb: 0.1,
		LatencyProb: 0.1, ExtraLatency: time.Millisecond,
	}))
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Call(nil, "echo", []byte{1, 2, 3})
			if err != nil && !errors.Is(err, ErrDropped) && !errors.Is(err, ErrLinkTimeout) && !errors.Is(err, ErrCorrupt) {
				t.Errorf("untyped error: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestSimScheduledFaultsTyped(t *testing.T) {
	// Ops count payload crossings: op 1 = request of call 1, op 2 =
	// response of call 1 (when the request survived), and so on.
	s := echoSim()
	s.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.Drop},    // call 1: request dropped
		{Op: 2, Kind: faultsim.Timeout}, // call 2: request times out
		{Op: 4, Kind: faultsim.Corrupt}, // call 3: response corrupted (op 3 = its request)
	}}))
	for i, want := range []error{ErrDropped, ErrLinkTimeout, ErrCorrupt} {
		_, err := s.Call(nil, "echo", []byte("a"))
		if !errors.Is(err, want) {
			t.Errorf("call %d: %v, want %v", i+1, err, want)
		}
		if !RetryableError(err) {
			t.Errorf("call %d: link fault %v must be retryable", i+1, err)
		}
	}
	st := s.Stats()
	want := Faults{Drops: 1, Timeouts: 1, Corruptions: 1}
	if st.Faults != want || st.Errors != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.PerMethod["echo"] != want {
		t.Errorf("PerMethod[echo] = %+v, want %+v", st.PerMethod["echo"], want)
	}
}

// TestSimPerMethodFaultDeltas: per-method fault counters split by
// method, and a Stats delta keeps only the methods that moved.
func TestSimPerMethodFaultDeltas(t *testing.T) {
	s := echoSim()
	s.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.Drop}, // echo call 1: request dropped
		{Op: 2, Kind: faultsim.Drop}, // empty call: request dropped
		{Op: 4, Kind: faultsim.Timeout},
	}}))
	s.Call(nil, "echo", []byte("a"))
	s.Call(nil, "empty", nil)
	before := s.Stats()
	s.Call(nil, "echo", []byte("b")) // op 3 request, op 4 response times out
	d := s.Stats().Sub(before)
	want := map[string]Faults{"echo": {Timeouts: 1}}
	if !reflect.DeepEqual(d.PerMethod, want) {
		t.Errorf("PerMethod delta = %+v, want %+v", d.PerMethod, want)
	}
	if got := s.Stats().PerMethod["empty"]; got != (Faults{Drops: 1}) {
		t.Errorf("PerMethod[empty] = %+v", got)
	}
}

// TestSimTamperFlipsExactlyOneByte: a silent tamper delivers a copy
// with exactly one bit-flipped byte and no error — only an end-to-end
// check can catch it.
func TestSimTamperFlipsExactlyOneByte(t *testing.T) {
	var seen []byte
	s := NewSim(func(_ *obs.Span, _ string, req []byte) ([]byte, error) {
		seen = append([]byte(nil), req...)
		return nil, nil
	}, costmodel.Default1993())
	s.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{{Op: 1, Kind: faultsim.Tamper}}}))
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sent := append([]byte(nil), orig...)
	if _, err := s.Call(nil, "m", sent); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, orig) {
		t.Error("caller's buffer was mutated")
	}
	diff := 0
	for i := range orig {
		if seen[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1 (delivered %v)", diff, seen)
	}
	if st := s.Stats(); st.Tampers != 1 || st.PerMethod["m"].Tampers != 1 || st.Errors != 0 {
		t.Errorf("tamper counters = %+v", st)
	}
}

func TestSimInjectedLatencyPriced(t *testing.T) {
	m := costmodel.Default1993()
	s := echoSim()
	s.SetFaults(faultsim.New(faultsim.Policy{
		ExtraLatency: 500 * time.Millisecond,
		Schedule:     []faultsim.Scheduled{{Op: 1, Kind: faultsim.Latency}},
	}))
	if _, err := s.Call(nil, "empty", nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Latencies != 1 || st.LatencySim != 500*time.Millisecond {
		t.Errorf("latency stats = %+v", st)
	}
	if base := m.NetworkTime(st.Messages); st.Latency != base+500*time.Millisecond {
		t.Errorf("Latency %v does not include the injected 0.5s (base %v)", st.Latency, base)
	}
}

// TestSimNoteRetryForwardsToLink: the package-level NoteRetry helper
// reaches the sim's retry counter through the Transport interface.
func TestSimNoteRetryForwardsToLink(t *testing.T) {
	var tr Transport = echoSim()
	NoteRetry(tr)
	NoteRetry(tr)
	if got := tr.Stats().Retries; got != 2 {
		t.Errorf("retries %d, want 2 (chaos reconciliation depends on this)", got)
	}
}

// TestSimNoteRetry: each NoteRetry on the sim counts one client retry.
func TestSimNoteRetry(t *testing.T) {
	s := echoSim()
	s.NoteRetry()
	s.NoteRetry()
	if got := s.Stats().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

// TestSimFaultDeterminism: two links with the same policy seed and the
// same call sequence produce identical stats.
func TestSimFaultDeterminism(t *testing.T) {
	run := func() Stats {
		s := echoSim()
		s.SetFaults(faultsim.New(faultsim.Policy{
			Seed: 42, DropProb: 0.15, TimeoutProb: 0.1, CorruptProb: 0.1, TamperProb: 0.1,
			LatencyProb: 0.1, ExtraLatency: 3 * time.Millisecond,
		}))
		for i := 0; i < 400; i++ {
			s.Call(nil, "blob", []byte{byte(i)})
		}
		return s.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats diverged:\n%+v\n%+v", a, b)
	}
	if a.Drops == 0 || a.Timeouts == 0 || a.Corruptions == 0 || a.Tampers == 0 || a.Latencies == 0 {
		t.Errorf("expected every fault kind to fire across 400 calls: %+v", a)
	}
}

func TestSimClosedFences(t *testing.T) {
	s := echoSim()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(nil, "echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

// TestSimAddsNoSpan: the rpc.<method> span is the whole per-call
// transport span — no wrapper above it, so query span trees keep their
// exact shape.
func TestSimAddsNoSpan(t *testing.T) {
	s := echoSim()
	root := obs.NewTracer().Start("root")
	if _, err := s.Call(root, "echo", nil); err != nil {
		t.Fatal(err)
	}
	root.End()
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "rpc.echo" {
		names := make([]string, len(kids))
		for i, k := range kids {
			names[i] = k.Name()
		}
		t.Fatalf("root children %v, want exactly [rpc.echo]", names)
	}
}

func TestSimCallSpanTree(t *testing.T) {
	s := echoSim()
	root := obs.NewTracer().Start("test")
	payload := []byte("twelve bytes")
	if _, err := s.Call(root, "echo", payload); err != nil {
		t.Fatal(err)
	}
	root.End()

	rpc := root.Find("rpc.echo")
	if rpc == nil {
		t.Fatalf("no rpc span:\n%s", root.RenderString())
	}
	kids := rpc.Children()
	if len(kids) != 3 {
		t.Fatalf("rpc has %d children, want request/server/response", len(kids))
	}
	for i, want := range []string{"net.request", "server", "net.response"} {
		if kids[i].Name() != want {
			t.Errorf("child %d is %q, want %q", i, kids[i].Name(), want)
		}
	}
	if b, _ := root.Find("net.request").Int("bytes"); b != int64(len(payload)) {
		t.Errorf("request bytes attr = %d, want %d", b, len(payload))
	}
	if m, ok := root.Find("net.response").Int("messages"); !ok || m < 1 {
		t.Errorf("response messages attr = %d, %v", m, ok)
	}
	// The handler's own span nests under "server".
	if root.Find("server").Find("work") == nil {
		t.Error("handler span not nested under server")
	}
	// The untraced path still works.
	if resp, err := s.Call(nil, "echo", payload); err != nil || string(resp) != "re:"+string(payload) {
		t.Fatalf("untraced Call: %q, %v", resp, err)
	}
}

// TestSimCallSpanFaultAnnotations schedules one fault of each visible
// kind on the request crossing and checks the failing leg carries the
// fault name, the rpc span carries the error, and latency records its
// simulated nanoseconds.
func TestSimCallSpanFaultAnnotations(t *testing.T) {
	cases := []struct {
		kind    faultsim.Kind
		name    string
		wantErr error
	}{
		{faultsim.Drop, "drop", ErrDropped},
		{faultsim.Timeout, "timeout", ErrLinkTimeout},
		{faultsim.Corrupt, "corrupt", ErrCorrupt},
		{faultsim.Latency, "latency", nil},
		{faultsim.Tamper, "tamper", nil},
	}
	for _, tc := range cases {
		s := echoSim()
		s.SetFaults(faultsim.New(faultsim.Policy{
			ExtraLatency: 5e6,
			Schedule:     []faultsim.Scheduled{{Op: 1, Kind: tc.kind}},
		}))
		root := obs.NewTracer().Start("test")
		_, err := s.Call(root, "echo", []byte("payload"))
		root.End()
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s: error %v, want %v", tc.name, err, tc.wantErr)
			}
			if _, ok := root.Find("rpc.echo").Str("error"); !ok {
				t.Errorf("%s: rpc span missing error annotation", tc.name)
			}
		} else if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		req := root.Find("net.request")
		if got, ok := req.Str("fault"); !ok || got != tc.name {
			t.Errorf("fault attr = %q (ok=%v), want %q\n%s", got, ok, tc.name, root.RenderString())
		}
		if tc.kind == faultsim.Latency {
			if ns, ok := req.Int("latencySimNs"); !ok || ns != 5e6 {
				t.Errorf("latencySimNs = %d (ok=%v), want 5e6", ns, ok)
			}
		}
	}
}
