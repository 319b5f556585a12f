package main

import (
	"encoding/json"
	"strings"
	"testing"

	"qbism/internal/qbism"
	"qbism/internal/transport"
)

// shortRun is the self-tests' mode: one corpus load and a fixed, small
// number of operations per phase, so counts repeat exactly.
func shortRun(t *testing.T, seed uint64, trace bool) *run {
	return &run{seed: seed, seconds: 1, trace: trace, root: t.TempDir(), setups: 1, fixedOps: 24}
}

func lookup(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

func mustExecute(t *testing.T, w workload, r *run) *result {
	t.Helper()
	res, err := execute(w, r)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// Every workload prints exactly the named metrics, each with its unit:
// the end-to-end ones untraced, the per-layer ones traced.
func TestShortModePrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := mustExecute(t, w, shortRun(t, 7, trace))
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, m.name, got, m.unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not marshal: %v", w.name, err)
			}
		}
	}
}

// A flipped byte in a copy of a response is caught: by the frame CRC
// when the wire bytes are damaged, and by the oracle when a well-formed
// frame carries wrong data or a result differs in one voxel or pixel.
func TestOracleCatchesFlippedByte(t *testing.T) {
	srv, _, err := setUp(3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sys := srv.sys
	o, err := newOracle(sys)
	if err != nil {
		t.Fatal(err)
	}
	specs := []qbism.QuerySpec{
		{StudyID: 1, Atlas: atlasName, Structure: "putamen"},
		{StudyID: 2, Atlas: atlasName, FullStudy: true},
	}
	qs, err := prepare(sys, o, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		resp, err := sys.Transport.Call(nil, qbism.QueryMethod, q.req)
		if err != nil {
			t.Fatal(err)
		}
		meta, blob, err := qbism.DecodeQueryResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkBlob(blob, q); err != nil {
			t.Fatalf("unmodified response rejected: %v", err)
		}
		for _, pos := range []int{len(resp) / 3, len(resp) - 1} {
			bad := append([]byte(nil), resp...)
			bad[pos] ^= 0x10
			if _, b, err := qbism.DecodeQueryResponse(bad); err == nil && checkBlob(b, q) == nil {
				t.Errorf("%s: byte %d flipped on the wire went unnoticed", q.spec.Label(), pos)
			}
		}
		header, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		badBlob := append([]byte(nil), blob...)
		badBlob[len(badBlob)-1] ^= 0x01
		framed, err := transport.EncodeFrame(header, badBlob)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := qbism.DecodeQueryResponse(framed)
		if err != nil {
			t.Fatalf("re-framed response does not decode: %v", err)
		}
		if err := checkBlob(b, q); err == nil || !strings.Contains(err.Error(), "oracle") {
			t.Errorf("%s: well-formed response with a flipped voxel passed the oracle (err %v)", q.spec.Label(), err)
		}

		res, err := sys.RunQuery(q.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkResult(res, q); err != nil {
			t.Fatalf("unmodified result rejected: %v", err)
		}
		res.Data.Values = append([]byte(nil), res.Data.Values...)
		res.Data.Values[0] ^= 0x01
		if checkResult(res, q) == nil {
			t.Errorf("%s: flipped voxel value passed the oracle", q.spec.Label())
		}
		res.Data.Values[0] ^= 0x01
		res.Image.Pix[len(res.Image.Pix)/2] ^= 0x01
		if checkResult(res, q) == nil {
			t.Errorf("%s: flipped pixel passed the oracle", q.spec.Label())
		}
	}
}

// The deterministic counts repeat exactly for one seed and change with
// the seed.
func TestDeterministicCountsFollowTheSeed(t *testing.T) {
	cases := []struct {
		workload string
		trace    bool
		metrics  []string
	}{
		{"clinic-bulk", false, []string{"lfm_pages_per_query", "stored_bytes_per_voxel"}},
		{"clinic-selective", true, []string{"transport.messages", "transport.response_bytes", "dx.voxels"}},
	}
	for _, c := range cases {
		w := lookup(t, c.workload)
		a := mustExecute(t, w, shortRun(t, 1, c.trace))
		b := mustExecute(t, w, shortRun(t, 1, c.trace))
		d := mustExecute(t, w, shortRun(t, 2, c.trace))
		for _, m := range c.metrics {
			va, vb, vd := a.Metrics[m].Value, b.Metrics[m].Value, d.Metrics[m].Value
			if va != vb {
				t.Errorf("%s %s: %v then %v for the same seed", c.workload, m, va, vb)
			}
			if va == vd {
				t.Errorf("%s %s: %v for seeds 1 and 2 alike", c.workload, m, va)
			}
		}
	}
}
