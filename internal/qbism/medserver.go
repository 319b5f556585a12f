package qbism

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"qbism/internal/lfm"
	"qbism/internal/obs"
	"qbism/internal/sdb"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// QuerySpec is the high-level query a user composes in the DX entry
// fields; the MedicalServer translates it into SQL (Section 5.2's
// "division of labor").
type QuerySpec struct {
	StudyID int    `json:"studyId"`
	Atlas   string `json:"atlas"` // atlas name, e.g. "Talairach"

	// FullStudy requests the entire VOLUME (query Q1).
	FullStudy bool `json:"fullStudy,omitempty"`
	// Structure restricts spatially to a named anatomical structure
	// (queries Q3, Q4).
	Structure string `json:"structure,omitempty"`
	// Box restricts spatially to a rectangular solid, inclusive corners
	// (x0,y0,z0,x1,y1,z1) — query Q2.
	Box *[6]uint32 `json:"box,omitempty"`
	// HasBand restricts by intensity to [BandLo, BandHi], which must
	// match a stored band (queries Q5, Q6).
	HasBand bool `json:"hasBand,omitempty"`
	BandLo  int  `json:"bandLo,omitempty"`
	BandHi  int  `json:"bandHi,omitempty"`
	// Encoding selects the band REGION encoding. Empty resolves to the
	// planner's per-band representation pick (see repr.go) —
	// EncHilbertNaive when no pick was recorded, as in the seed.
	Encoding string `json:"encoding,omitempty"`
}

// Key returns a cache key identifying the query. If the spec cannot be
// marshaled (it cannot today, but Key must never silently collide) it
// falls back to the human-readable label extended with the fields the
// label omits, so distinct specs still get distinct keys.
func (q QuerySpec) Key() string {
	b, err := json.Marshal(q)
	if err != nil {
		return fmt.Sprintf("%s|atlas=%s|enc=%s", q.Label(), q.Atlas, q.Encoding)
	}
	return string(b)
}

// Label names the query in reports.
func (q QuerySpec) Label() string {
	var parts []string
	switch {
	case q.FullStudy:
		parts = append(parts, "entire study")
	}
	if q.Box != nil {
		parts = append(parts, fmt.Sprintf("box (%d,%d,%d)-(%d,%d,%d)",
			q.Box[0], q.Box[1], q.Box[2], q.Box[3], q.Box[4], q.Box[5]))
	}
	if q.Structure != "" {
		parts = append(parts, q.Structure)
	}
	if q.HasBand {
		parts = append(parts, fmt.Sprintf("band %d-%d", q.BandLo, q.BandHi))
	}
	if len(parts) == 0 {
		parts = append(parts, "empty spec")
	}
	return fmt.Sprintf("study %d: %s", q.StudyID, strings.Join(parts, " in "))
}

// QueryMeta is the server-side response header: atlas coordinate-space
// and patient information from the first SQL query (needed for
// rendering and annotation), plus server-side measurement counters.
type QueryMeta struct {
	N         int     `json:"n"`
	DX        float64 `json:"dx"`
	DY        float64 `json:"dy"`
	DZ        float64 `json:"dz"`
	AtlasID   int     `json:"atlasId"`
	Patient   string  `json:"patient"`
	PatientID int     `json:"patientId"`
	Date      string  `json:"date"`

	DBCPUNanos int64  `json:"dbCpuNanos"` // measured handler CPU (wall) time
	LFMPages   uint64 `json:"lfmPages"`   // 4 KB device pages read during the query
	LFMReads   uint64 `json:"lfmReads"`   // LFM read operations (seek-count proxy)
	// CacheHits/CacheMisses are the LFM page-cache counters for this
	// query (zero when the cache is disabled). With the cache on,
	// LFMPages counts only device transfers (misses), so LFMPages +
	// CacheHits ≈ the unbuffered protocol's page count.
	CacheHits   uint64 `json:"cacheHits,omitempty"`
	CacheMisses uint64 `json:"cacheMisses,omitempty"`

	// Concurrency note: these counters are deltas of the shared
	// lfm.Stats around this query's handler. They are exact when queries
	// run serially (every measured experiment does); under the parallel
	// executor concurrent queries' I/O interleaves into each other's
	// deltas, so per-query counters become indicative, not exact.

	// Degraded is set when the server answered through a slow fallback
	// path — e.g. the intensityBand REGION was missing or failed its
	// checksum, so the band was recomputed from the stored VOLUME. The
	// result is still exact; Warning says what happened.
	Degraded bool   `json:"degraded,omitempty"`
	Warning  string `json:"warning,omitempty"`
}

// medicalQueryMethod is the RPC method name on the link.
const medicalQueryMethod = "medicalQuery"

// bandRegionMethod returns one study's stored band REGION bytes: the
// population path's per-study read (ConsistentBandRegion), which
// needs the REGION alone — no voxel extraction, import, or render. Its
// request is a framed QuerySpec naming the study, band, and encoding.
const bandRegionMethod = "bandRegion"

// QueryMethod is the wire method name a raw Transport caller uses to
// reach the MedicalServer — the same name RunQuery dispatches on.
const QueryMethod = medicalQueryMethod

// EncodeQueryRequest builds the wire request body for QueryMethod from
// a spec: the framed spec JSON, exactly what RunQuery sends. Load
// generators and external clients use this to drive a daemon through a
// bare Transport without a System on their side.
func EncodeQueryRequest(spec QuerySpec) ([]byte, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return transport.EncodeFrame(specJSON, nil)
}

// decodeQueryRequest is the server side of EncodeQueryRequest. The
// frame CRC means a request corrupted in flight fails with a typed,
// retryable error instead of executing a different query.
func decodeQueryRequest(request []byte) (QuerySpec, error) {
	var spec QuerySpec
	specJSON, _, err := transport.DecodeFrame(request)
	if err != nil {
		return spec, fmt.Errorf("qbism: request: %w", err)
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return spec, fmt.Errorf("qbism: bad query spec: %w", err)
	}
	return spec, nil
}

// DecodeQueryResponse splits a QueryMethod response into its meta
// header and DataRegion blob — the inverse of what the MedicalServer
// sends, with the same typed frame errors RunQuery's validation sees.
func DecodeQueryResponse(resp []byte) (*QueryMeta, []byte, error) {
	return splitResponse(resp)
}

// ServeRPC is the System's transport.Handler: it dispatches a framed
// RPC by method name. This is the server side of the transport seam —
// qbismd serves it over TCP, transport.Local dispatches into it
// directly, and the simulated link (System.Link) wraps it.
// Unknown methods fail with transport.ErrUnknownMethod (typed,
// terminal), so a version-skewed client gets a classifiable refusal
// instead of a hang.
func (s *System) ServeRPC(sp *obs.Span, method string, request []byte) ([]byte, error) {
	switch method {
	case medicalQueryMethod:
		return s.handleMedicalQuery(sp, request)
	case bandRegionMethod:
		return s.handleBandRegion(sp, request)
	default:
		return nil, fmt.Errorf("qbism: %w: %q", transport.ErrUnknownMethod, method)
	}
}

// handleMedicalQuery is the MedicalServer RPC handler: it receives a
// framed QuerySpec, generates and executes the SQL, and returns the
// framed response (meta header + DataRegion blob).
func (s *System) handleMedicalQuery(sp *obs.Span, request []byte) ([]byte, error) {
	spec, err := decodeQueryRequest(request)
	if err != nil {
		return nil, err
	}
	defer s.traceHandler(sp)()
	if sp != nil {
		sp.SetStr("query", spec.Label())
	}
	start := time.Now()
	stats0 := s.LFM.Stats()

	msp := sp.Child("sql.metadata")
	meta, err := s.runMetadataQuery(msp, spec)
	msp.End()
	if err != nil {
		return nil, err
	}
	dsp := sp.Child("sql.data")
	blob, warning, err := s.runDataQuery(dsp, spec)
	dsp.End()
	if err != nil {
		return nil, err
	}
	if warning != "" {
		meta.Degraded = true
		meta.Warning = warning
		// Degradations must be countable: one counter bump and one
		// span annotation per degraded answer.
		s.Metrics.Counter("qbism_degraded_total").Inc()
		sp.SetStr("degraded", warning)
	}

	meta.DBCPUNanos = time.Since(start).Nanoseconds()
	delta := s.LFM.Stats().Sub(stats0)
	meta.LFMPages = delta.PageReads
	meta.LFMReads = delta.Reads
	meta.CacheHits = delta.CacheHits
	meta.CacheMisses = delta.CacheMisses
	sp.SetInt("lfm.pages", int64(delta.PageReads))
	sp.SetInt("lfm.reads", int64(delta.Reads))
	header, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	return transport.EncodeFrame(header, blob)
}

// traceHandler attaches a traced handler's span (nil = untraced, a
// no-op) to the LFM and returns the detach func. Traced handlers run
// one at a time: the LFM has a single span attachment point, and
// serializing here is what makes the span tree's page accounting
// reconcile exactly with the handler's lfm.Stats deltas (the paper's
// measured protocol is serial anyway).
func (s *System) traceHandler(sp *obs.Span) (detach func()) {
	if sp == nil {
		return func() {}
	}
	s.traceMu.Lock()
	s.LFM.SetSpan(sp)
	return func() {
		s.LFM.SetSpan(nil)
		s.traceMu.Unlock()
	}
}

// handleBandRegion is the bandRegion RPC handler: it looks up one
// study's intensityBand row for [lo, hi] under the requested encoding
// and returns the stored REGION bytes, framed, for the client to
// decode and recode onto its curve.
func (s *System) handleBandRegion(sp *obs.Span, request []byte) ([]byte, error) {
	spec, err := decodeQueryRequest(request)
	if err != nil {
		return nil, err
	}
	defer s.traceHandler(sp)()
	row, n, err := s.querySingle(sp, `
select ib.region
from   intensityBand ib
where  ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`,
		sdb.Int(int64(spec.StudyID)), sdb.Int(int64(spec.BandLo)), sdb.Int(int64(spec.BandHi)),
		sdb.Str(spec.Encoding))
	if err != nil {
		return nil, err
	}
	if n != 1 || row[0].T != sdb.TLong {
		return nil, fmt.Errorf("qbism: no stored intensityBand row")
	}
	data, err := s.LFM.Read(row[0].L)
	if err != nil {
		return nil, err
	}
	return transport.EncodeFrame(nil, data)
}

// querySingle streams a generated SELECT through the iterator API and
// returns its first row plus the number of rows seen (counting stops at
// two — one row too many is as wrong as a thousand, and stopping early
// keeps the executor from materializing a mistaken cross product).
// The returned row remains valid after the iterator is closed. The
// statement is traced under sp (nil = untraced).
func (s *System) querySingle(sp *obs.Span, sql string, args ...sdb.Value) (row []sdb.Value, n int, err error) {
	rows, err := s.DB.QuerySpan(sp, sql, args...)
	if err != nil {
		return nil, 0, err
	}
	defer rows.Close()
	for rows.Next() {
		if n == 0 {
			row = rows.Row()
		}
		n++
		if n > 1 {
			break
		}
	}
	return row, n, rows.Err()
}

// runMetadataQuery executes the paper's first §3.4 query: verify the
// warped study exists and fetch atlas space and patient information.
// User-provided strings travel as bind parameters, never spliced text.
func (s *System) runMetadataQuery(sp *obs.Span, spec QuerySpec) (*QueryMeta, error) {
	row, n, err := s.querySingle(sp, `
select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
       a.atlasId, p.name, p.patientId, rv.date
from   atlas a, rawVolume rv,
       warpedVolume wv, patient p
where  a.atlasId = wv.atlasId and
       wv.studyId = rv.studyId and
       rv.patientId = p.patientId and
       rv.studyId = ? and a.atlasName = ?`,
		sdb.Int(int64(spec.StudyID)), sdb.Str(spec.Atlas))
	if err != nil {
		return nil, err
	}
	if n != 1 {
		return nil, fmt.Errorf("qbism: no warped study %d in atlas %q", spec.StudyID, spec.Atlas)
	}
	return &QueryMeta{
		N: int(row[0].I), DX: row[4].F, DY: row[5].F, DZ: row[6].F,
		AtlasID: int(row[7].I), Patient: row[8].S, PatientID: int(row[9].I), Date: row[10].S,
	}, nil
}

// dataQuerySQL translates a QuerySpec into the second §3.4 SQL query
// plus its bind values. The generated text mirrors the paper: a call to
// extractVoxels() with, for mixed queries, intersection() nested inside
// and additional joins. Every user-influenced value — study, band
// bounds, encoding, structure and atlas names — binds through `?`
// placeholders, so quote characters in a structure name are data.
func dataQuerySQL(spec QuerySpec) (string, []sdb.Value, error) {
	encoding := spec.Encoding
	if encoding == "" {
		encoding = EncHilbertNaive
	}
	study := sdb.Int(int64(spec.StudyID))
	switch {
	case spec.FullStudy:
		return `
select fullVolume(wv.data)
from   warpedVolume wv
where  wv.studyId = ?`, []sdb.Value{study}, nil

	case spec.Box != nil && !spec.HasBand && spec.Structure == "":
		b := spec.Box
		return `
select extractVoxels(wv.data, boxRegion(?, ?, ?, ?, ?, ?))
from   warpedVolume wv
where  wv.studyId = ?`, []sdb.Value{
				sdb.Int(int64(b[0])), sdb.Int(int64(b[1])), sdb.Int(int64(b[2])),
				sdb.Int(int64(b[3])), sdb.Int(int64(b[4])), sdb.Int(int64(b[5])),
				study}, nil

	case spec.Structure != "" && !spec.HasBand:
		return `
select extractVoxels(wv.data, as.region)
from   warpedVolume wv, atlasStructure as, neuralStructure ns
where  wv.studyId = ? and
       wv.atlasId = as.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`, []sdb.Value{study, sdb.Str(spec.Structure)}, nil

	case spec.HasBand && spec.Structure == "":
		return `
select extractVoxels(wv.data, ib.region)
from   warpedVolume wv, intensityBand ib
where  wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ?`, []sdb.Value{
				study, sdb.Int(int64(spec.BandLo)), sdb.Int(int64(spec.BandHi)),
				sdb.Str(encoding)}, nil

	case spec.HasBand && spec.Structure != "":
		// Mixed query: intersection() in the select list, extra joins.
		return `
select extractVoxels(wv.data, intersection(ib.region, as.region))
from   warpedVolume wv, intensityBand ib, atlasStructure as, neuralStructure ns
where  wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ? and
       as.atlasId = wv.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`, []sdb.Value{
				study, sdb.Int(int64(spec.BandLo)), sdb.Int(int64(spec.BandHi)),
				sdb.Str(encoding), sdb.Str(spec.Structure)}, nil

	default:
		return "", nil, fmt.Errorf("qbism: query spec selects nothing (set FullStudy, Box, Structure, or a band)")
	}
}

// runDataQuery executes the second §3.4 query through the streaming
// iterator, returning the marshaled DataRegion. Because the planner
// places extractVoxels() in the projection above every pushed filter
// and join, the expensive long-field read only happens for rows that
// survived the WHERE clause — and the iterator evaluates it lazily,
// one row at a time, rather than materializing a result set first.
//
// Band queries degrade gracefully: when the stored intensityBand REGION
// is missing, unreadable, or fails its checksum, the band is recomputed
// from the stored VOLUME (the slow path — a full-volume scan, roughly
// Q1's I/O cost) and the returned warning marks the answer Degraded.
// The voxel bytes are identical to what the fast path would return.
// With streaming, a checksum/read fault surfaces from the row iterator
// mid-drain (rows.Err()), not from Exec — querySingle folds both into
// its error return, so the fallback conditions are unchanged.
func (s *System) runDataQuery(sp *obs.Span, spec QuerySpec) (blob []byte, warning string, err error) {
	// An unspecified band encoding resolves to the planner's per-REGION
	// representation pick before SQL generation, so the generated query
	// binds a concrete encoding label — the SQL itself stays
	// representation-agnostic.
	if spec.HasBand && spec.Encoding == "" {
		spec.Encoding = s.bandEncoding(spec.StudyID, spec.BandLo, spec.BandHi)
	}
	sql, args, err := dataQuerySQL(spec)
	if err != nil {
		return nil, "", err
	}
	row, n, err := s.querySingle(sp, sql, args...)
	if spec.HasBand {
		switch {
		case err != nil && (errors.Is(err, lfm.ErrChecksum) || errors.Is(err, lfm.ErrReadFault)):
			// The stored band REGION (or a joined region) is unreadable.
			return s.bandSlowPath(sp, spec, fmt.Sprintf(
				"stored intensityBand [%d,%d] unreadable (%v); recomputed from VOLUME", spec.BandLo, spec.BandHi, err))
		case err == nil && n == 0:
			// No matching intensityBand row — the band "index" is missing
			// for this [lo,hi]; recompute rather than fail.
			return s.bandSlowPath(sp, spec, fmt.Sprintf(
				"no stored intensityBand [%d,%d]; recomputed from VOLUME", spec.BandLo, spec.BandHi))
		}
	}
	if err != nil {
		return nil, "", err
	}
	if n != 1 || len(row) != 1 {
		return nil, "", fmt.Errorf("qbism: data query returned %d rows (spec %s)", n, spec.Label())
	}
	v := row[0]
	if v.T != sdb.TBytes {
		return nil, "", fmt.Errorf("qbism: data query returned %v, want DATA_REGION bytes", v.T)
	}
	return v.Y, "", nil
}

// bandSlowPath recomputes a band query from first principles when the
// stored intensityBand REGION is unavailable. A pure band query must
// scan every voxel (band membership is a property of the whole VOLUME),
// so it reads the full field and rebuilds the band REGION. A mixed
// band+structure query only needs the structure's voxels: it extracts
// the structure REGION run-pruned (gap-coalesced page I/O, the same
// plan extractVoxels uses) and filters the extracted values to
// [BandLo, BandHi] — band ∩ structure exactly, at structure-footprint
// I/O cost instead of a full-volume read. Both paths produce results
// byte-identical to the intensityBand fast path: the stored band
// REGIONs were built by exactly this scan at load time, and both
// Filter and intersection() yield the same canonical run list for the
// same voxel set.
func (s *System) bandSlowPath(parent *obs.Span, spec QuerySpec, warning string) ([]byte, string, error) {
	if spec.BandLo < 0 || spec.BandHi > 255 || spec.BandLo > spec.BandHi {
		return nil, "", fmt.Errorf("qbism: band [%d,%d] outside the 0-255 intensity range", spec.BandLo, spec.BandHi)
	}
	// The degradation is a traceable event of its own: everything the
	// fallback does nests under a "band.fallback" span carrying the
	// reason, so a trace shows *why* a band query cost Q1-like I/O.
	sp := parent.Child("band.fallback")
	defer sp.End()
	sp.SetStr("reason", warning)
	row, n, err := s.querySingle(sp, `
select wv.data
from   warpedVolume wv, atlas a
where  wv.studyId = ? and wv.atlasId = a.atlasId and a.atlasName = ?`,
		sdb.Int(int64(spec.StudyID)), sdb.Str(spec.Atlas))
	if err != nil {
		return nil, "", err
	}
	if n != 1 {
		return nil, "", fmt.Errorf("qbism: no warped study %d in atlas %q", spec.StudyID, spec.Atlas)
	}
	volHandle := row[0].L

	var d *volume.DataRegion
	if spec.Structure != "" {
		srow, sn, err := s.querySingle(sp, `
select as.region
from   atlasStructure as, neuralStructure ns, atlas a
where  a.atlasName = ? and as.atlasId = a.atlasId and
       as.structureId = ns.structureId and ns.structureName = ?`,
			sdb.Str(spec.Atlas), sdb.Str(spec.Structure))
		if err != nil {
			return nil, "", err
		}
		if sn != 1 {
			return nil, "", fmt.Errorf("qbism: no structure %q in atlas %q", spec.Structure, spec.Atlas)
		}
		sr, err := regionFromValue(s.DB, srow[0])
		if err != nil {
			return nil, "", fmt.Errorf("qbism: band slow path: %w", err)
		}
		if sr.Curve().Kind() != s.Curve.Kind() {
			if sr, err = sr.Recode(s.Curve); err != nil {
				return nil, "", err
			}
		}
		sd, err := ExtractStoredOpts(s.LFM, volHandle, sr, s.extractOpts())
		if err != nil {
			return nil, "", fmt.Errorf("qbism: band slow path: %w", err)
		}
		if d, err = sd.Filter(uint8(spec.BandLo), uint8(spec.BandHi)); err != nil {
			return nil, "", err
		}
	} else {
		volBytes, err := s.LFM.Read(volHandle)
		if err != nil {
			return nil, "", fmt.Errorf("qbism: band slow path: %w", err)
		}
		vol, err := volume.New(s.Curve, volBytes)
		if err != nil {
			return nil, "", err
		}
		r, err := vol.Band(uint8(spec.BandLo), uint8(spec.BandHi))
		if err != nil {
			return nil, "", err
		}
		if d, err = volume.Extract(vol, r); err != nil {
			return nil, "", err
		}
	}
	blob, err := MarshalDataRegion(d, s.Cfg.Method)
	if err != nil {
		return nil, "", err
	}
	return blob, warning, nil
}
