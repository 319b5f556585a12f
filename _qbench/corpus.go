package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"qbism/internal/daemon"
	"qbism/internal/lfm"
	"qbism/internal/qbism"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/synth"
	"qbism/internal/volume"
)

// The corpus every workload runs on: a 64³ atlas grid with 5 PET and 3
// MRI studies, every band also stored in Z-run and octant encodings
// (Table 4), the default "auto" REGION representation, and the LFM page
// cache off (the paper's unbuffered protocol, and qbismd's default).
const (
	corpusBits   = 6
	corpusPET    = 5
	corpusMRI    = 3
	setupRepeats = 3
	atlasName    = "Talairach"
)

func corpusConfig(seed uint64) qbism.Config {
	return qbism.Config{
		Bits:               corpusBits,
		NumPET:             corpusPET,
		NumMRI:             corpusMRI,
		Seed:               splitmix64(seed) | 1,
		ExtraBandEncodings: true,
	}
}

// server is a loaded system, plus its daemon when the workload serves
// over TCP.
type server struct {
	sys *qbism.System
	d   *daemon.Daemon
}

func (s *server) Close() {
	if s.d != nil {
		s.d.Close()
	}
	s.sys.Close()
}

// setUp loads the corpus repeats times, timing each load (and, for the
// daemon workload, the daemon start until it listens). It returns the
// last server and the median load time; the earlier ones are closed.
func setUp(seed uint64, repeats int, withDaemon bool) (*server, float64, error) {
	var times []float64
	var srv *server
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.Close()
			srv = nil
			runtime.GC()
		}
		start := time.Now()
		sys, err := qbism.New(corpusConfig(seed))
		if err != nil {
			return nil, 0, fmt.Errorf("loading corpus: %w", err)
		}
		srv = &server{sys: sys}
		if withDaemon {
			srv.d = daemon.New(sys, daemon.Config{Addr: "127.0.0.1:0"})
			if err := srv.d.Start(); err != nil {
				sys.Close()
				return nil, 0, fmt.Errorf("starting daemon: %w", err)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return srv, median(times), nil
}

// storedBytesPerVoxel is the space the LFM holds after load — buddy
// blocks included — per voxel of study data.
func storedBytesPerVoxel(sys *qbism.System) float64 {
	used := sys.LFM.Capacity() - sys.LFM.FreePages()*sys.LFM.PageSize()
	side := uint64(sys.Side())
	return float64(used) / float64(uint64(len(sys.Studies))*side*side*side)
}

// handle runs a catalog query that must return exactly one LONG value.
func handle(db *sdb.DB, sql string, args ...sdb.Value) (lfm.Handle, error) {
	rows, err := db.Query(sql, args...)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	var h lfm.Handle
	n := 0
	for rows.Next() {
		v := rows.Row()[0]
		if v.T != sdb.TLong {
			return 0, fmt.Errorf("catalog query returned %s, want a long field", v.T)
		}
		h = v.L
		n++
	}
	if err := rows.Err(); err != nil {
		return 0, err
	}
	if n != 1 {
		return 0, fmt.Errorf("catalog query returned %d rows, want 1", n)
	}
	return h, nil
}

func volumeHandle(sys *qbism.System, study int) (lfm.Handle, error) {
	return handle(sys.DB, `select wv.data from warpedVolume wv where wv.studyId = ?`, sdb.Int(int64(study)))
}

func structureHandle(sys *qbism.System, name string) (lfm.Handle, error) {
	return handle(sys.DB, `
select as.region
from   atlasStructure as, neuralStructure ns
where  as.structureId = ns.structureId and ns.structureName = ?`, sdb.Str(name))
}

func bandHandle(sys *qbism.System, study, lo, hi int, enc string) (lfm.Handle, error) {
	return handle(sys.DB, bandFetchSQL, sdb.Int(int64(study)), sdb.Int(int64(lo)), sdb.Int(int64(hi)), sdb.Str(enc))
}

// bandEncoding asks the planner which stored representation a band
// query with no explicit encoding resolves to (EXPLAIN's first line).
func bandEncoding(sys *qbism.System, spec qbism.QuerySpec) (string, error) {
	lines, err := sys.ExplainSpec(spec, false)
	if err != nil {
		return "", err
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "band repr: ") {
		return "", fmt.Errorf("explain of %s has no band repr line", spec.Label())
	}
	return strings.Fields(strings.TrimPrefix(lines[0], "band repr: "))[0], nil
}

// setupLayers replays one study's load through the public load-path
// functions and returns each stage's time in seconds: synthesis, warp,
// banding, REGION encoding (every stored encoding) and LFM allocation.
func setupLayers(sys *qbism.System) (map[string]float64, error) {
	cfg := sys.Cfg
	side := sys.Side()
	out := map[string]float64{}
	t := time.Now()
	raw, err := synth.Generate(synth.Params{
		StudyID: 1, PatientID: 1, Modality: synth.PET, Seed: cfg.Seed, AtlasSide: side,
	})
	if err != nil {
		return nil, err
	}
	out["setup.synth_s"] = time.Since(t).Seconds()

	t = time.Now()
	scan, _, err := raw.WarpToAtlas(side)
	if err != nil {
		return nil, err
	}
	out["setup.warp_s"] = time.Since(t).Seconds()

	t = time.Now()
	vol, err := volume.FromScanline(sys.Curve, scan)
	if err != nil {
		return nil, err
	}
	bands, err := vol.UniformBands(cfg.BandWidth)
	if err != nil {
		return nil, err
	}
	out["setup.band_s"] = time.Since(t).Seconds()

	t = time.Now()
	var encoded [][]byte
	for _, b := range bands {
		zr, err := b.Region.Recode(sys.ZCurve)
		if err != nil {
			return nil, err
		}
		for _, e := range []struct {
			m    rencode.Method
			zcur bool
		}{{rencode.Naive, false}, {rencode.Naive, true}, {rencode.Octant, true}, {rencode.K3Tree, false}} {
			r := b.Region
			if e.zcur {
				r = zr
			}
			data, err := rencode.Encode(e.m, r)
			if err != nil {
				return nil, err
			}
			encoded = append(encoded, data)
		}
	}
	out["setup.encode_s"] = time.Since(t).Seconds()

	mgr, err := lfm.New(16<<20, lfm.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	t = time.Now()
	if _, err := mgr.Allocate(vol.Bytes()); err != nil {
		return nil, err
	}
	for _, data := range encoded {
		if _, err := mgr.Allocate(data); err != nil {
			return nil, err
		}
	}
	out["setup.store_s"] = time.Since(t).Seconds()
	return out, nil
}
