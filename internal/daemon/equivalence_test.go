package daemon

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"qbism/internal/qbism"
	"qbism/internal/rencode"
	"qbism/internal/transport"
)

// The loopback equivalence suite: the Table 3 queries plus Table
// 4-style band sweeps, run once through the in-process simulated
// transport and once over real TCP to a daemon on 127.0.0.1 — the
// answers must be byte-identical. This is the transport seam's central
// promise: moving the MedicalServer to the other end of a socket
// changes where the bytes travel, never what they say.

var (
	sysOnce sync.Once
	sysInst *qbism.System
	sysErr  error
)

func equivalenceConfig() qbism.Config {
	return qbism.Config{
		Bits:               5,
		NumPET:             3,
		NumMRI:             1,
		Seed:               7,
		Method:             rencode.Naive,
		SmallStudies:       true,
		ExtraBandEncodings: true,
		StoreRaw:           true,
		WithMeshes:         true,
	}
}

func testSystem(t *testing.T) *qbism.System {
	t.Helper()
	sysOnce.Do(func() {
		sysInst, sysErr = qbism.New(equivalenceConfig())
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

// wireSystem builds a same-seed twin of testSystem whose client
// transport (Config.Dial) is a TCP connection to a daemon serving the
// twin itself on 127.0.0.1 — so the twin's own front end queries it
// over real sockets.
func wireSystem(t *testing.T) (*qbism.System, *Daemon) {
	t.Helper()
	var d *Daemon
	cfg := equivalenceConfig()
	cfg.Dial = func(s *qbism.System) (transport.Transport, error) {
		d = New(s, Config{Addr: "127.0.0.1:0"})
		if err := d.Start(); err != nil {
			return nil, err
		}
		return transport.DialTCP(d.Addr().String(), transport.TCPOptions{CallTimeout: 30 * time.Second}), nil
	}
	sys, err := qbism.New(cfg)
	if err != nil {
		if d != nil {
			d.Close()
		}
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sys.Close()
		d.Close()
	})
	return sys, d
}

// equivalenceSpecs is the comparison suite: Table 3's six single-study
// queries plus a Table 4-style top-band sweep across every PET study
// in two encodings.
func equivalenceSpecs(s *qbism.System) []qbism.QuerySpec {
	specs := s.Table3Queries()
	topLo := 256 - s.Cfg.BandWidth
	for _, study := range s.PETStudyIDs() {
		specs = append(specs,
			qbism.QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: topLo, BandHi: 255},
			qbism.QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: topLo, BandHi: 255, Encoding: qbism.EncOctant},
		)
	}
	return specs
}

func runSuite(t *testing.T, s *qbism.System, specs []qbism.QuerySpec) []*qbism.QueryResult {
	t.Helper()
	results := make([]*qbism.QueryResult, len(specs))
	for i, spec := range specs {
		res, err := s.RunQuery(spec)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, spec.Label(), err)
		}
		results[i] = res
	}
	return results
}

// comparableMeta strips the fields that legitimately differ between
// runs: DBCPUNanos is measured handler wall time.
func comparableMeta(m qbism.QueryMeta) qbism.QueryMeta {
	m.DBCPUNanos = 0
	return m
}

func TestLoopbackEquivalence(t *testing.T) {
	sys := testSystem(t)
	specs := equivalenceSpecs(sys)

	// Baseline: the default in-process simulated transport.
	baseline := runSuite(t, sys, specs)

	// A same-seed system whose front end reaches its MedicalServer over
	// real TCP, through a daemon.
	wireSys, d := wireSystem(t)
	wire := runSuite(t, wireSys, specs)

	for i := range specs {
		label := specs[i].Label()
		if lm, wm := comparableMeta(baseline[i].Meta), comparableMeta(wire[i].Meta); !reflect.DeepEqual(lm, wm) {
			t.Errorf("%s: meta diverged across the wire:\nlocal: %+v\nwire:  %+v", label, lm, wm)
		}
		if !reflect.DeepEqual(baseline[i].Data, wire[i].Data) {
			t.Errorf("%s: DataRegion diverged across the wire", label)
		}
		if !reflect.DeepEqual(baseline[i].Image, wire[i].Image) {
			t.Errorf("%s: rendered image diverged across the wire", label)
		}
	}

	// The wire run really crossed the socket.
	if got, want := d.Stats().Calls, uint64(len(specs)); got < want {
		t.Errorf("daemon served %d calls, want >= %d — the wire run did not use TCP", got, want)
	}

	// The band sweep's population form: the consistent-band REGION over
	// every PET study, fetched through the bandRegion RPC, one call per
	// study.
	pets := sys.PETStudyIDs()
	topLo := 256 - sys.Cfg.BandWidth
	for _, enc := range []string{qbism.EncHilbertNaive, qbism.EncOctant} {
		local, err := sys.ConsistentBandRegion(pets, topLo, 255, enc, 2)
		if err != nil {
			t.Fatalf("%s: sim ConsistentBandRegion: %v", enc, err)
		}
		before := d.Stats().Calls
		remote, err := wireSys.ConsistentBandRegion(pets, topLo, 255, enc, 2)
		if err != nil {
			t.Fatalf("%s: wire ConsistentBandRegion: %v", enc, err)
		}
		if !local.Equal(remote) {
			t.Errorf("%s: consistent-band REGION diverged across the wire", enc)
		}
		if got := d.Stats().Calls - before; got != uint64(len(pets)) {
			t.Errorf("%s: daemon served %d band calls, want %d (one per study)", enc, got, len(pets))
		}
	}
}
