package qbism

import (
	"bytes"
	"testing"

	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/transport"
)

// The run-pruned read path (gap-coalesced extraction, the LFM page
// cache, the pruned band slow path) must be invisible in results: every
// combination of gap threshold and cache size returns bytes identical
// to the seed plan, across the whole chaos query corpus. Only the I/O
// counters may change.

// runCorpus executes every spec in the pool and returns the marshaled
// result blobs keyed by spec.
func runCorpus(t *testing.T, sys *System, pool []QuerySpec) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(pool))
	for _, spec := range pool {
		res, err := sys.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		out[spec.Key()] = marshalResult(t, sys, res)
	}
	return out
}

func TestPrunedReadPathByteIdentical(t *testing.T) {
	baseline, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(baseline)
	want := runCorpus(t, baseline, pool)

	variants := []struct {
		name  string
		gap   uint64
		cache int
	}{
		{"gap2", 2, 0},
		{"gap8", 8, 0},
		{"gap64", 64, 0},
		{"cache64", 0, 64},
		{"gap8cache64", 8, 64},
		{"gap8cache2", 8, 2}, // tiny cache: constant eviction, same bytes
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := chaosBaseConfig()
			cfg.ReadGapPages = v.gap
			cfg.CachePages = v.cache
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runCorpus(t, sys, pool)
			for _, spec := range pool {
				if !bytes.Equal(got[spec.Key()], want[spec.Key()]) {
					t.Fatalf("%s: result differs from seed read path", spec.Label())
				}
			}
			if v.cache >= 64 {
				// A cache big enough for the working set must hit across
				// the corpus's repeated reads.
				if st := sys.LFM.Stats(); st.CacheHits == 0 {
					t.Error("cache enabled but never hit across the corpus")
				}
			}
		})
	}
}

// TestPrunedReadPathUnderFaults reruns the chaos workload with the gap
// threshold and the page cache both on: successes must stay
// byte-identical to the fault-free baseline, failures must stay typed
// and retryable, and the PR 1 success-rate guarantee must hold.
func TestPrunedReadPathUnderFaults(t *testing.T) {
	clean, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(clean)
	want := runCorpus(t, clean, pool)

	cfg := chaosBaseConfig()
	cfg.ReadGapPages = 4
	cfg.CachePages = 32
	cfg.LinkFaults = chaosLinkPolicy(301)
	cfg.DeviceFaults = chaosDevicePolicy(302)
	cfg.Retry = transport.DefaultRetryPolicy()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	succeeded := 0
	total := 0
	for round := 0; round < 4; round++ {
		for _, spec := range pool {
			total++
			res, err := sys.RunQuery(spec)
			if err != nil {
				if !transport.RetryableError(err) {
					t.Fatalf("%s: fatal-classified error escaped: %v", spec.Label(), err)
				}
				continue
			}
			succeeded++
			if got := marshalResult(t, sys, res); !bytes.Equal(got, want[spec.Key()]) {
				t.Fatalf("%s: silent corruption through cache+gap path (degraded=%v)",
					spec.Label(), res.Meta.Degraded)
			}
		}
	}
	if rate := float64(succeeded) / float64(total); rate < 0.95 {
		t.Errorf("success rate %.3f < 0.95 (%d/%d)", rate, succeeded, total)
	}
	if st := sys.LFM.Stats(); st.CacheHits == 0 {
		t.Error("cache never hit under faults")
	}
}

// TestExtractGapCoalescing drives ExtractStoredOpts directly over a
// deliberately scattered region: raising the gap threshold must never
// change the bytes, must never increase the number of read operations
// (seeks), and at a gap covering the whole field must collapse to a
// single read.
func TestExtractGapCoalescing(t *testing.T) {
	cfg := chaosBaseConfig()
	cfg.Bits = 5 // 32^3 = 8 pages, so page gaps exist
	cfg.NumPET, cfg.NumMRI = 1, 0
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.DB.Exec("select wv.data from warpedVolume wv where wv.studyId = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("volume lookup: %v", err)
	}
	h := res.Rows[0][0].L

	// Short runs on pages 0, 2, and 5 of the 8-page field: a 1-page gap
	// and a 2-page gap between consecutive ranges.
	var runs []region.Run
	for _, p := range []uint64{0, 2, 5} {
		runs = append(runs, region.Run{Lo: p * 4096, Hi: p*4096 + 16})
	}
	r, err := region.FromRuns(sys.Curve, runs)
	if err != nil {
		t.Fatal(err)
	}

	sys.LFM.ResetStats()
	base, err := ExtractStored(sys.LFM, h, r)
	if err != nil {
		t.Fatal(err)
	}
	if reads := sys.LFM.Stats().Reads; reads != 3 {
		t.Fatalf("seed plan reads = %d, want 3 (one per scattered range)", reads)
	}

	// gap 1 closes the 1-page hole, gap 2 closes both, larger gaps stay
	// at a single contiguous read.
	for _, tc := range []struct{ gap, wantReads uint64 }{{1, 2}, {2, 1}, {8, 1}} {
		before := sys.LFM.Stats()
		got, err := ExtractStoredOpts(sys.LFM, h, r, ExtractOpts{GapPages: tc.gap})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Values, base.Values) || !got.Region.Equal(base.Region) {
			t.Fatalf("gap %d changed extraction bytes", tc.gap)
		}
		if d := sys.LFM.Stats().Sub(before); d.Reads != tc.wantReads {
			t.Errorf("gap %d: reads = %d, want %d", tc.gap, d.Reads, tc.wantReads)
		}
	}
}

// TestPruningBeatsFullVolume is the headline acceptance check: a query
// on a small REGION must read at least 5x fewer device pages than the
// full-volume read of the same study.
func TestPruningBeatsFullVolume(t *testing.T) {
	cfg := Config{
		Bits: 6, NumPET: 1, NumMRI: 0, Seed: 11,
		Method: rencode.Naive, SmallStudies: true, Checksums: true,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	study := sys.Studies[0].StudyID
	full, err := sys.RunQuery(QuerySpec{StudyID: study, Atlas: "Talairach", FullStudy: true})
	if err != nil {
		t.Fatal(err)
	}
	box := [6]uint32{0, 0, 0, 15, 15, 15}
	small, err := sys.RunQuery(QuerySpec{StudyID: study, Atlas: "Talairach", Box: &box})
	if err != nil {
		t.Fatal(err)
	}
	if small.Meta.LFMPages == 0 || full.Meta.LFMPages == 0 {
		t.Fatalf("page counters empty: box=%d full=%d", small.Meta.LFMPages, full.Meta.LFMPages)
	}
	if small.Meta.LFMPages*5 > full.Meta.LFMPages {
		t.Errorf("box query read %d pages vs full %d — pruning under 5x",
			small.Meta.LFMPages, full.Meta.LFMPages)
	}
	// A structure query is also pruned, if less dramatically.
	str, err := sys.RunQuery(QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen"})
	if err != nil {
		t.Fatal(err)
	}
	if str.Meta.LFMPages >= full.Meta.LFMPages {
		t.Errorf("structure query read %d pages, full read %d — no pruning at all",
			str.Meta.LFMPages, full.Meta.LFMPages)
	}
	t.Logf("pages: full=%d box16=%d putamen=%d", full.Meta.LFMPages, small.Meta.LFMPages, str.Meta.LFMPages)
}
