package qbism

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"qbism/internal/atlas"
	"qbism/internal/cluster"
	"qbism/internal/costmodel"
	"qbism/internal/dx"
	"qbism/internal/faultsim"
	"qbism/internal/lfm"
	"qbism/internal/obs"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/synth"
	"qbism/internal/transport"
	"qbism/internal/volume"
	"qbism/internal/warp"
)

// Band-encoding labels stored in the intensityBand.encoding column.
const (
	// EncHilbertNaive is runs in Hilbert order, 8 bytes per run — the
	// default of the paper's experiments (Section 6.1).
	EncHilbertNaive = "h-naive"
	// EncZNaive is runs in Z order, 8 bytes per run.
	EncZNaive = "z-naive"
	// EncOctant is regular octants in Z order, 4 bytes per octant.
	EncOctant = "octant"
	// EncK3Tree is the queryable k³-tree bitmap encoding in Hilbert
	// order: probes (CONTAINS, point membership, interval tests) answer
	// directly on the compressed bytes.
	EncK3Tree = "k3-tree"
)

// Config parameterizes a System.
type Config struct {
	// Bits is the atlas grid resolution: side = 1<<Bits. The paper uses
	// 7 (128x128x128).
	Bits int
	// NumPET and NumMRI are the study counts (paper: 5 and 3).
	NumPET, NumMRI int
	// Seed drives all synthetic data deterministically.
	Seed uint64
	// Method is the primary REGION storage encoding (default Naive, as
	// in the measured experiments; Elias is the paper's space winner).
	Method rencode.Method
	// Rencode selects the per-REGION representation strategy. "auto"
	// (the default) stores each band REGION both as runs and as a
	// k³-tree and lets costmodel.ReprPolicy pick, per REGION, which one
	// default queries resolve to; atlas structures store whichever of
	// Method and the k³-tree encodes smaller. "runs" reproduces the
	// seed exactly (run-list codecs only, no k³ rows). A rencode method
	// name (e.g. "k3-tree", "elias") forces that encoding everywhere.
	Rencode string
	// BandWidth is the intensity band width (default 32 -> 8 bands).
	BandWidth int
	// WithMeshes builds and stores structure surface meshes.
	WithMeshes bool
	// ExtraBandEncodings additionally stores every band REGION in Z-run
	// and octant encodings, enabling the Table 4 comparison.
	ExtraBandEncodings bool
	// SmallStudies shrinks acquisition grids (for tests).
	SmallStudies bool
	// OnlyStudies, when non-nil, loads only the listed study IDs. The
	// full corpus is still *enumerated* — IDs, patients, and synthesis
	// seeds are assigned exactly as for a full load — so a node holding
	// a shard of the corpus stores bytes identical to the same studies
	// in an unsharded system. Non-listed studies are skipped entirely
	// (no rows, no device space). An empty non-nil slice loads nothing.
	OnlyStudies []int
	// StoreRaw keeps the raw patient-space studies in the database, as
	// the paper's load pipeline does. Off saves device space.
	StoreRaw bool
	// DeviceBytes is the LFM device capacity (0 = sized automatically).
	DeviceBytes uint64
	// DevicePath, when set, backs the LFM with a real file at this path
	// instead of simulated memory (the paper's "operating system disk
	// device"). Page accounting is identical.
	DevicePath string

	// Checksums enables per-page CRC32 integrity on the LFM device:
	// written pages are checksummed and reads verify them, so device
	// corruption surfaces as a typed error instead of silent bad data.
	Checksums bool
	// LinkFaults, when non-nil, injects faults on the DX↔MedicalServer
	// link (drops, timeouts, latency, corruption). Installed after
	// loading, so only queries see them.
	LinkFaults *faultsim.Policy
	// DeviceFaults, when non-nil, injects faults on LFM page I/O (read
	// errors, in-transfer bit flips, write errors, torn pages).
	// Installed after loading.
	DeviceFaults *faultsim.Policy
	// Retry governs client-side retries of transient query failures.
	// The zero value means a single attempt;
	// transport.DefaultRetryPolicy() is a sensible production setting.
	Retry transport.RetryPolicy
	// Dial builds the System's client transport once loading finishes
	// (the system passed in is fully built). Nil means the default: the
	// simulated link, System.Link. The loopback equivalence suite dials a
	// TCP transport here instead, pointing the system's own query path
	// at a daemon serving the system.
	Dial func(*System) (transport.Transport, error)

	// CachePages, when positive, enables a CLOCK page cache of that many
	// 4 KB pages in front of the LFM device. Zero keeps the paper's
	// unbuffered protocol: every page touch is a device read, so Table
	// 3/4 counts reproduce exactly.
	CachePages int
	// ReadGapPages is the largest page gap between two REGION run ranges
	// worth reading through in one contiguous device transfer instead of
	// two seeks (see ExtractOpts.GapPages). Zero reproduces the seed
	// read plan; Model.CoalesceGapPages() is the device break-even.
	ReadGapPages uint64
	// Workers bounds the parallel executor's worker pool for multi-study
	// batches (RunQueries, Table4Parallel). Zero or one means serial.
	Workers int

	// Trace enables end-to-end query tracing: every RunQuery produces a
	// span tree covering the RPC round trips, SQL parse/plan/execute
	// phases, per-operator counters, per-handle LFM I/O, and the DX
	// import/render stages (QueryResult.Trace). To keep the LFM span
	// attribution exact, traced MedicalServer handlers execute serially;
	// parallel batches still overlap their client-side stages.
	Trace bool
	// SlowLogThreshold, when positive (and Trace is set), captures the
	// full span tree and executed plan of every query whose measured
	// total latency reaches it into a bounded slow-query log
	// (System.SlowLog). Zero disables the log.
	SlowLogThreshold time.Duration
	// SlowLogCapacity is the slow-query ring size (default 32).
	SlowLogCapacity int

	// DisablePushdown turns off the SQL planner's predicate pushdown and
	// hash joins: every query runs FROM-order nested loops with one
	// monolithic WHERE filter at the top. Spatial predicates then
	// evaluate only after all joins, so long-field REGION pages are read
	// for rows a pushed filter would have discarded first. For A/B
	// benchmarks (cmd/perfbench) — results are identical, only the
	// per-row page accounting and CPU change.
	DisablePushdown bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Bits == 0 {
		c.Bits = 7
	}
	if c.NumPET == 0 && c.NumMRI == 0 {
		c.NumPET, c.NumMRI = 5, 3
	}
	if c.BandWidth == 0 {
		c.BandWidth = 32
	}
	if c.Seed == 0 {
		c.Seed = 1993
	}
	if c.SlowLogCapacity == 0 {
		c.SlowLogCapacity = 32
	}
	if c.Rencode == "" {
		c.Rencode = RencodeAuto
	}
	if c.DeviceBytes == 0 {
		volBytes := uint64(1) << (3 * c.Bits)
		perStudy := volBytes * 8 // warped + raw + bands + slack
		c.DeviceBytes = uint64(c.NumPET+c.NumMRI+2)*perStudy + (64 << 20)
	}
	return c
}

// StudyInfo summarizes one loaded study.
type StudyInfo struct {
	StudyID   int
	PatientID int
	Modality  synth.Modality
}

// System is a fully loaded QBISM instance.
type System struct {
	Cfg    Config
	Curve  sfc.Curve // Hilbert storage order
	ZCurve sfc.Curve // Z order, for encoding comparisons
	LFM    *lfm.Manager
	DB     *sdb.DB
	// Link is the simulated DX↔MedicalServer link around ServeRPC: it
	// meters and prices every crossing and carries the link faults.
	Link  *transport.Sim
	Model costmodel.Model
	Atlas *atlas.Atlas
	Cache *dx.Cache

	// Transport carries the DX↔MedicalServer exchanges (from
	// Config.Dial; default: Link). It is the one node of the System's
	// one-shard cluster, fixed at New: assigning a different transport
	// afterwards does not reroute queries. The query path prices network
	// time from deltas of its Stats.
	Transport transport.Transport
	// LinkFaults/DeviceFaults are the active fault injectors (nil when
	// the corresponding policy is unset); their counters feed chaos
	// tests and the CLI's fault report.
	LinkFaults   *faultsim.Injector
	DeviceFaults *faultsim.Injector

	// Tracer is the query tracer (nil unless Cfg.Trace). Metrics is the
	// process-wide registry — always present, so counters like
	// qbism_degraded_total accumulate whether or not tracing is on.
	// SlowLog is the slow-query ring (nil unless tracing with a
	// positive SlowLogThreshold).
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	SlowLog *obs.SlowLog
	// traceMu serializes traced MedicalServer handlers so the LFM's
	// per-handle span attribution is exact (the LFM has one attachment
	// point; see lfm.Manager.SetSpan).
	traceMu sync.Mutex

	AtlasID int
	Studies []StudyInfo

	// BandRegions keeps the per-study Hilbert band REGIONs in memory for
	// the representation experiments (E1-E3); the authoritative copies
	// live in the intensityBand table.
	BandRegions map[int][]volume.BandSpec

	// bandRepr records, per stored band, the encoding label a band query
	// with no explicit Encoding resolves to — the planner's per-REGION
	// representation pick (see repr.go). Loaded sequentially, then read
	// by concurrent query workers and rewritten by AdaptBandRepr.
	reprMu   sync.RWMutex
	bandRepr map[bandKey]string // guarded by reprMu

	// front is the client side every query goes through: a one-shard,
	// one-node cluster over Transport.
	front *frontEnd
}

// New builds, loads, and wires up a complete system: schema, atlas,
// synthesized studies (generated, registered, warped, banded), spatial
// UDFs, and the MedicalServer RPC endpoint.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if err := validateRencode(cfg.Rencode); err != nil {
		return nil, err
	}
	curve, err := sfc.New(sfc.Hilbert, 3, cfg.Bits)
	if err != nil {
		return nil, err
	}
	zcurve := sfc.MustNew(sfc.ZOrder, 3, cfg.Bits)
	var mgr *lfm.Manager
	if cfg.DevicePath != "" {
		dev, derr := lfm.OpenFileDevice(cfg.DevicePath, cfg.DeviceBytes)
		if derr != nil {
			return nil, derr
		}
		mgr, err = lfm.NewFileBacked(dev, lfm.DefaultPageSize)
	} else {
		mgr, err = lfm.New(cfg.DeviceBytes, lfm.DefaultPageSize)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Checksums {
		if cerr := mgr.EnableChecksums(); cerr != nil {
			mgr.Close()
			return nil, cerr
		}
	}
	s := &System{
		Cfg:         cfg,
		Curve:       curve,
		ZCurve:      zcurve,
		LFM:         mgr,
		DB:          sdb.NewDB(mgr),
		Model:       costmodel.Default1993(),
		Cache:       dx.NewCache(8),
		AtlasID:     1,
		BandRegions: make(map[int][]volume.BandSpec),
		bandRepr:    make(map[bandKey]string),
	}
	s.DB.SetPushdown(!cfg.DisablePushdown)
	if err := s.createSchema(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.loadAtlas(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.loadStudies(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.registerSpatialUDFs(); err != nil {
		s.Close()
		return nil, err
	}
	s.Link = transport.NewSim(s.ServeRPC, s.Model)
	// Loading traffic is not part of any measured query.
	s.LFM.ResetStats()
	// Observability attaches only now, for the same reason: metrics and
	// spans describe query traffic, not the load pipeline.
	s.Metrics = obs.NewRegistry()
	s.DB.SetMetrics(s.Metrics)
	if cfg.Trace {
		s.Tracer = obs.NewTracer()
		s.DB.SetTracer(s.Tracer)
		if cfg.SlowLogThreshold > 0 {
			s.SlowLog = obs.NewSlowLog(cfg.SlowLogCapacity)
		}
	}
	// Fault injection starts only now: loading runs on perfect hardware
	// (the paper's load pipeline is out of scope for the fault model),
	// queries run on the configured one.
	if cfg.LinkFaults != nil {
		s.LinkFaults = faultsim.New(*cfg.LinkFaults)
		s.Link.SetFaults(s.LinkFaults)
	}
	if cfg.DeviceFaults != nil {
		s.DeviceFaults = faultsim.New(*cfg.DeviceFaults)
		s.LFM.SetFaults(s.DeviceFaults)
	}
	// The cache likewise covers only query traffic, never the load.
	if cfg.CachePages > 0 {
		s.LFM.EnableCache(cfg.CachePages)
	}
	// The client transport dials last, against the fully built system:
	// the default is the link itself (with the faults installed above),
	// while a custom Dial may point at a live daemon.
	s.Transport = s.Link
	if cfg.Dial != nil {
		tr, err := cfg.Dial(s)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("qbism: dialing transport: %w", err)
		}
		s.Transport = tr
	}
	// A single node is a one-shard cluster: the same read loop, retry
	// schedule, and front end as a ClusterSystem, over one transport.
	cl, err := cluster.New(cluster.Config{Retry: cfg.Retry.WithDefaults(), Metrics: s.Metrics},
		[][]transport.Transport{{s.Transport}})
	if err != nil {
		s.Close()
		return nil, err
	}
	s.front = &frontEnd{
		cluster: cl, workers: cfg.Workers, curve: curve,
		cache: s.Cache, model: s.Model, tracer: s.Tracer, metrics: s.Metrics,
		slowLog: s.SlowLog, slowThresh: cfg.SlowLogThreshold,
	}
	return s, nil
}

// Close releases the system's client transport and its long-field
// manager. The simulated flavors hold no external resources, but a TCP
// transport holds a live socket and a file-backed LFM holds an open
// device file — callers should Close when done.
func (s *System) Close() error {
	var first error
	if s.Transport != nil {
		first = s.Transport.Close()
	}
	if s.LFM != nil {
		if cerr := s.LFM.Close(); cerr != nil && first == nil {
			first = cerr
		}
	}
	return first
}

// extractOpts returns the read-plan options the spatial UDFs use.
func (s *System) extractOpts() ExtractOpts {
	return ExtractOpts{GapPages: s.Cfg.ReadGapPages}
}

// createSchema issues the DDL for the Figure 1 schema.
func (s *System) createSchema() error {
	ddl := []string{
		`create table atlas (atlasId int, atlasName string, n int,
		   x0 float, y0 float, z0 float, dx float, dy float, dz float)`,
		`create table neuralSystem (systemId int, systemName string)`,
		`create table neuralStructure (structureId int, structureName string, systemId int)`,
		`create table atlasStructure (structureId int, atlasId int, region long, surface long)`,
		`create table patient (patientId int, name string, age int, sex string)`,
		`create table rawVolume (studyId int, patientId int, date string, modality string,
		   nx int, ny int, nz int, data long)`,
		`create table warpedVolume (studyId int, atlasId int, warpParams string, data long)`,
		`create table intensityBand (studyId int, atlasId int, lo int, hi int,
		   encoding string, region long)`,
	}
	for _, stmt := range ddl {
		if _, err := s.DB.Exec(stmt); err != nil {
			return fmt.Errorf("qbism: schema: %w", err)
		}
	}
	return nil
}

// loadAtlas builds the procedural atlas and stores it relationally.
func (s *System) loadAtlas() error {
	a, err := atlas.Build(s.Curve, s.Cfg.WithMeshes)
	if err != nil {
		return err
	}
	s.Atlas = a
	side := 1 << s.Cfg.Bits
	if _, err := s.DB.Exec(fmt.Sprintf(
		`insert into atlas values (%d, 'Talairach', %d, 0.0, 0.0, 0.0, %g, %g, %g)`,
		s.AtlasID, side, a.VoxelMM[0], a.VoxelMM[1], a.VoxelMM[2])); err != nil {
		return err
	}
	systems := make(map[string]int)
	for _, st := range a.Structures {
		sysID, ok := systems[st.System]
		if !ok {
			sysID = len(systems) + 1
			systems[st.System] = sysID
			if _, err := s.DB.Exec(fmt.Sprintf(
				`insert into neuralSystem values (%d, '%s')`, sysID, st.System)); err != nil {
				return err
			}
		}
		if _, err := s.DB.Exec(fmt.Sprintf(
			`insert into neuralStructure values (%d, '%s', %d)`, st.ID, st.Name, sysID)); err != nil {
			return err
		}
		enc, err := s.encodeStructure(st.Region)
		if err != nil {
			return err
		}
		regionHandle, err := s.LFM.Allocate(enc)
		if err != nil {
			return err
		}
		surface := sdb.Null()
		if st.Mesh != nil {
			h, err := s.LFM.Allocate(st.Mesh.Marshal())
			if err != nil {
				return err
			}
			surface = sdb.Long(h)
		}
		if err := s.DB.InsertRow("atlasStructure", []sdb.Value{
			sdb.Int(int64(st.ID)), sdb.Int(int64(s.AtlasID)), sdb.Long(regionHandle), surface,
		}); err != nil {
			return err
		}
	}
	return nil
}

// loadStudies synthesizes, registers, warps, stores, and bands each study.
func (s *System) loadStudies() error {
	side := 1 << s.Cfg.Bits
	names := []string{"Hughes", "Ramirez", "Okafor", "Lindqvist", "Tanaka", "Moreau", "Petrov", "Osei", "Kim", "Novak"}
	var only map[int]bool
	if s.Cfg.OnlyStudies != nil {
		only = make(map[int]bool, len(s.Cfg.OnlyStudies))
		for _, id := range s.Cfg.OnlyStudies {
			only[id] = true
		}
	}
	studyID := 0
	for i := 0; i < s.Cfg.NumPET+s.Cfg.NumMRI; i++ {
		modality := synth.PET
		if i >= s.Cfg.NumPET {
			modality = synth.MRI
		}
		studyID++
		patientID := i + 1
		if only != nil && !only[studyID] {
			// Not this node's shard: the ID/seed slots above stay
			// consumed so loaded studies match an unsharded load
			// byte-for-byte.
			continue
		}
		params := synth.Params{
			StudyID:   studyID,
			PatientID: patientID,
			Modality:  modality,
			Seed:      s.Cfg.Seed + uint64(i)*7919,
			AtlasSide: side,
		}
		if s.Cfg.SmallStudies {
			g := synth.DefaultGrid(modality, side)
			params.Grid = warp.Grid{NX: g.NX / 2, NY: g.NY / 2, NZ: g.NZ}
			if params.Grid.NZ < 2 {
				params.Grid.NZ = 2
			}
		}
		raw, err := synth.Generate(params)
		if err != nil {
			return err
		}
		name := names[i%len(names)]
		age := 25 + int((s.Cfg.Seed+uint64(i)*13)%50)
		sex := "F"
		if i%2 == 1 {
			sex = "M"
		}
		if _, err := s.DB.Exec(fmt.Sprintf(
			`insert into patient values (%d, '%s', %d, '%s')`, patientID, name, age, sex)); err != nil {
			return err
		}
		rawHandle := sdb.Null()
		if s.Cfg.StoreRaw {
			h, err := s.LFM.Allocate(raw.Data)
			if err != nil {
				return err
			}
			rawHandle = sdb.Long(h)
		}
		if err := s.DB.InsertRow("rawVolume", []sdb.Value{
			sdb.Int(int64(studyID)), sdb.Int(int64(patientID)), sdb.Str(raw.Date),
			sdb.Str(modality.String()),
			sdb.Int(int64(raw.Grid.NX)), sdb.Int(int64(raw.Grid.NY)), sdb.Int(int64(raw.Grid.NZ)),
			rawHandle,
		}); err != nil {
			return err
		}

		// Warp to atlas space at load time (Section 2.2: "we generate and
		// store the warped volume here at database load time ... since
		// the computation is expensive").
		scan, fitted, err := raw.WarpToAtlas(side)
		if err != nil {
			return err
		}
		vol, err := volume.FromScanline(s.Curve, scan)
		if err != nil {
			return err
		}
		volHandle, err := s.LFM.Allocate(vol.Bytes())
		if err != nil {
			return err
		}
		wp, err := json.Marshal(fitted.M)
		if err != nil {
			return err
		}
		if err := s.DB.InsertRow("warpedVolume", []sdb.Value{
			sdb.Int(int64(studyID)), sdb.Int(int64(s.AtlasID)), sdb.Str(string(wp)), sdb.Long(volHandle),
		}); err != nil {
			return err
		}

		// Banding: uniformly spaced intensity intervals (width 32 in the
		// paper) stored as REGIONs — the Intensity Band "index".
		bands, err := vol.UniformBands(s.Cfg.BandWidth)
		if err != nil {
			return err
		}
		s.BandRegions[studyID] = bands
		for _, b := range bands {
			if err := s.storeBand(studyID, b, EncHilbertNaive); err != nil {
				return err
			}
			if s.Cfg.ExtraBandEncodings {
				for _, enc := range []string{EncZNaive, EncOctant} {
					if err := s.storeBand(studyID, b, enc); err != nil {
						return err
					}
				}
			}
			if err := s.loadBandRepr(studyID, b); err != nil {
				return err
			}
		}
		s.Studies = append(s.Studies, StudyInfo{StudyID: studyID, PatientID: patientID, Modality: modality})
	}
	return nil
}

// storeBand encodes one band REGION under the named encoding and inserts
// the intensityBand row. Labels not in the fixed set resolve through
// rencode.MethodByName and encode on the storage (Hilbert) curve — this
// is how the k3-tree rows and forced Rencode methods are stored.
func (s *System) storeBand(studyID int, b volume.BandSpec, encoding string) error {
	var data []byte
	var err error
	switch encoding {
	case EncHilbertNaive:
		data, err = rencode.Encode(rencode.Naive, b.Region)
	case EncZNaive:
		rz, rerr := b.Region.Recode(s.ZCurve)
		if rerr != nil {
			return rerr
		}
		data, err = rencode.Encode(rencode.Naive, rz)
	case EncOctant:
		rz, rerr := b.Region.Recode(s.ZCurve)
		if rerr != nil {
			return rerr
		}
		data, err = rencode.Encode(rencode.Octant, rz)
	default:
		m, ok := rencode.MethodByName(encoding)
		if !ok {
			return fmt.Errorf("qbism: unknown band encoding %q", encoding)
		}
		data, err = rencode.Encode(m, b.Region)
	}
	if err != nil {
		return err
	}
	h, err := s.LFM.Allocate(data)
	if err != nil {
		return err
	}
	return s.DB.InsertRow("intensityBand", []sdb.Value{
		sdb.Int(int64(studyID)), sdb.Int(int64(s.AtlasID)),
		sdb.Int(int64(b.Lo)), sdb.Int(int64(b.Hi)),
		sdb.Str(encoding), sdb.Long(h),
	})
}

// Side returns the atlas grid side length.
func (s *System) Side() int { return 1 << s.Cfg.Bits }

// PETStudyIDs returns the loaded PET study ids in order.
func (s *System) PETStudyIDs() []int {
	var out []int
	for _, st := range s.Studies {
		if st.Modality == synth.PET {
			out = append(out, st.StudyID)
		}
	}
	return out
}
