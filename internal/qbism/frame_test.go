package qbism

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"qbism/internal/transport"
)

// The frame codec itself (round trip, bit-flip and truncation
// detection, length-bomb rejection, fuzzing) is tested where it lives:
// internal/transport. This smoke test pins the wire helpers to it —
// qbism's request and response bytes are transport frames, and a
// damaged reply fails with transport's typed sentinels.
func TestFrameDelegatesToTransport(t *testing.T) {
	req, err := EncodeQueryRequest(QuerySpec{StudyID: 32})
	if err != nil {
		t.Fatal(err)
	}
	h, b, err := transport.DecodeFrame(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(h, []byte(`"studyId":32`)) || len(b) != 0 {
		t.Errorf("request frame = %q / %q, want the spec JSON and no body", h, b)
	}
	f, err := transport.EncodeFrame([]byte(`{"lfmPages":32}`), []byte("voxels"))
	if err != nil {
		t.Fatal(err)
	}
	meta, blob, err := DecodeQueryResponse(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta.LFMPages != 32 || !bytes.Equal(blob, []byte("voxels")) {
		t.Error("round trip mismatch through the transport codec")
	}
	f[len(f)-1] ^= 1
	if _, _, err := DecodeQueryResponse(f); !errors.Is(err, transport.ErrFrameCorrupt) {
		t.Errorf("corrupt frame: %v, want transport.ErrFrameCorrupt", err)
	}
	if _, _, err := DecodeQueryResponse(f[:3]); !errors.Is(err, transport.ErrFrameTruncated) {
		t.Errorf("truncated frame: %v, want transport.ErrFrameTruncated", err)
	}
}

func TestQuerySpecKeyDistinct(t *testing.T) {
	// Distinct specs must never share a cache key (the old Key() ignored
	// the Marshal error and could return "" for any failing spec).
	box := [6]uint32{1, 2, 3, 4, 5, 6}
	specs := []QuerySpec{
		{StudyID: 1, Atlas: "Talairach", FullStudy: true},
		{StudyID: 2, Atlas: "Talairach", FullStudy: true},
		{StudyID: 1, Atlas: "Other", FullStudy: true},
		{StudyID: 1, Atlas: "Talairach", Structure: "ntal"},
		{StudyID: 1, Atlas: "Talairach", Structure: "putamen"},
		{StudyID: 1, Atlas: "Talairach", Box: &box},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 0, BandHi: 31},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63, Encoding: EncOctant},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63, Structure: "ntal"},
	}
	seen := make(map[string]int)
	for i, q := range specs {
		k := q.Key()
		if k == "" {
			t.Errorf("spec %d: empty key", i)
		}
		if j, dup := seen[k]; dup {
			t.Errorf("specs %d and %d collide on %q", j, i, k)
		}
		seen[k] = i
	}
}

func TestQuerySpecKeyFallbackDistinct(t *testing.T) {
	// The fallback key (used if Marshal ever fails) must also separate
	// specs that Label() alone would conflate.
	a := QuerySpec{StudyID: 1, Atlas: "A", FullStudy: true}
	b := QuerySpec{StudyID: 1, Atlas: "B", FullStudy: true}
	if a.Label() != b.Label() {
		t.Fatal("test premise broken: labels differ")
	}
	fa := fmt.Sprintf("%s|atlas=%s|enc=%s", a.Label(), a.Atlas, a.Encoding)
	fb := fmt.Sprintf("%s|atlas=%s|enc=%s", b.Label(), b.Atlas, b.Encoding)
	if fa == fb {
		t.Error("fallback keys collide")
	}
}
