package main

import (
	"fmt"
	"math/rand/v2"

	"qbism/internal/lfm"
	"qbism/internal/qbism"
	"qbism/internal/region"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

// The SQL the MedicalServer generates for a query spec (the paper's two
// §3.4 statements). The traced run replays these through sdb to time
// the SQL layer on its own; they mirror qbism's generated text.
const (
	metadataSQL = `
select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
       a.atlasId, p.name, p.patientId, rv.date
from   atlas a, rawVolume rv,
       warpedVolume wv, patient p
where  a.atlasId = wv.atlasId and
       wv.studyId = rv.studyId and
       rv.patientId = p.patientId and
       rv.studyId = ? and a.atlasName = ?`
	fullSQL = `
select fullVolume(wv.data)
from   warpedVolume wv
where  wv.studyId = ?`
	boxSQL = `
select extractVoxels(wv.data, boxRegion(?, ?, ?, ?, ?, ?))
from   warpedVolume wv
where  wv.studyId = ?`
	structureSQL = `
select extractVoxels(wv.data, as.region)
from   warpedVolume wv, atlasStructure as, neuralStructure ns
where  wv.studyId = ? and
       wv.atlasId = as.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`
	bandSQL = `
select extractVoxels(wv.data, ib.region)
from   warpedVolume wv, intensityBand ib
where  wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ?`
	bandStructureSQL = `
select extractVoxels(wv.data, intersection(ib.region, as.region))
from   warpedVolume wv, intensityBand ib, atlasStructure as, neuralStructure ns
where  wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ? and
       as.atlasId = wv.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`
	// bandFetchSQL is the per-study band read of ConsistentBandRegion.
	bandFetchSQL = `
select ib.region
from   intensityBand ib
where  ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`
)

type queryKind int

const (
	kindFull queryKind = iota
	kindBox
	kindStructure
	kindBand
	kindBandStructure
)

// query is one prepared MedicalServer request: the spec, its wire form,
// the oracle's answer, and what the traced replay needs to re-run its
// steps (the LFM handles the data SQL reads and the band encoding the
// planner resolves to).
type query struct {
	kind    queryKind
	spec    qbism.QuerySpec
	req     []byte
	want    *answer
	volH    lfm.Handle
	structH lfm.Handle
	bandH   lfm.Handle
	bandEnc string
}

// answer is the oracle's result for one query: the DATA_REGION, its
// wire form, and the MIP image, built from in-memory objects alone.
type answer struct {
	data *volume.DataRegion
	blob []byte
	img  []byte
}

// Structure and band choices of the query streams.
var (
	hemispheres     = []string{"ntal0", "ntal1", "ntal2"}
	smallStructures = []string{"ntal", "putamen", "hippocampus", "caudate", "thalamus", "amygdala", "brainstem"}
	topBands        = [][2]int{{160, 191}, {192, 223}, {224, 255}}
	bulkBoxEdges    = []uint32{16, 20, 25, 29, 34, 38, 43, 48} // 1/4 to 3/4 of the 64 side
	daemonBoxEdges  = []uint32{16, 24}
	populationEncs  = []string{qbism.EncHilbertNaive, qbism.EncK3Tree, qbism.EncZNaive, qbism.EncZNaive, qbism.EncOctant}
)

// populationWorker is ConsistentBandRegion's worker count.
const populationWorker = 2

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitmix64(seed^stream), stream))
}

func studyIDs(sys *qbism.System) []int {
	ids := make([]int, len(sys.Studies))
	for i, st := range sys.Studies {
		ids[i] = st.StudyID
	}
	return ids
}

func boxSpec(rng *rand.Rand, study int, edge uint32, side uint32) qbism.QuerySpec {
	var b [6]uint32
	for axis := 0; axis < 3; axis++ {
		lo := uint32(rng.IntN(int(side - edge + 1)))
		b[axis], b[axis+3] = lo, lo+edge-1
	}
	return qbism.QuerySpec{StudyID: study, Atlas: atlasName, Box: &b}
}

// bulkSpecs is clinic-bulk's cycle: every study once as the full
// volume, once as a box (a fixed set of edge lengths at seeded
// positions) and once as a hemisphere, in seeded order.
func bulkSpecs(sys *qbism.System, seed uint64) []qbism.QuerySpec {
	rng := newRand(seed, 1)
	side := uint32(sys.Side())
	var specs []qbism.QuerySpec
	studies := studyIDs(sys)
	boxStudies := permuted(rng, studies)
	hemiStudies := permuted(rng, studies)
	for i, st := range studies {
		specs = append(specs, qbism.QuerySpec{StudyID: st, Atlas: atlasName, FullStudy: true})
		specs = append(specs, boxSpec(rng, boxStudies[i], bulkBoxEdges[i%len(bulkBoxEdges)], side))
		specs = append(specs, qbism.QuerySpec{StudyID: hemiStudies[i], Atlas: atlasName, Structure: hemispheres[i%len(hemispheres)]})
	}
	shuffle(rng, specs)
	return specs
}

// selectiveSpecs is clinic-selective's cycle, in seeded order: every
// study with each of the top three intensity bands, with three small
// structures, and with each top band intersected with a small
// structure. Band encodings are left to the planner. The set itself is
// the same for every seed, so seeds differ in order and corpus only.
func selectiveSpecs(sys *qbism.System, seed uint64) []qbism.QuerySpec {
	specs := selectiveSet(studyIDs(sys))
	shuffle(newRand(seed, 2), specs)
	return specs
}

func selectiveSet(studies []int) []qbism.QuerySpec {
	var specs []qbism.QuerySpec
	n := len(smallStructures)
	for i, st := range studies {
		for k, b := range topBands {
			specs = append(specs,
				qbism.QuerySpec{StudyID: st, Atlas: atlasName, Structure: smallStructures[(3*i+k)%n]},
				qbism.QuerySpec{StudyID: st, Atlas: atlasName, HasBand: true, BandLo: b[0], BandHi: b[1]},
				qbism.QuerySpec{StudyID: st, Atlas: atlasName, HasBand: true, BandLo: b[0], BandHi: b[1],
					Structure: smallStructures[(3*i+k+1)%n]})
		}
	}
	return specs
}

// daemonSpecs is daemon-mixed's cycle, in seeded order: clinic-selective's
// 72 specs and 8 heavy server-side ones — four left hemispheres and four
// boxes at seeded positions — so 90% selective and 10% heavy.
func daemonSpecs(sys *qbism.System, seed uint64) []qbism.QuerySpec {
	rng := newRand(seed, 3)
	studies := studyIDs(sys)
	specs := selectiveSet(studies)
	side := uint32(sys.Side())
	for i, st := range permuted(rng, studies) {
		if i%2 == 0 {
			specs = append(specs, qbism.QuerySpec{StudyID: st, Atlas: atlasName, Structure: "ntal1"})
		} else {
			specs = append(specs, boxSpec(rng, st, daemonBoxEdges[(i/2)%len(daemonBoxEdges)], side))
		}
	}
	shuffle(rng, specs)
	return specs
}

func shuffle(rng *rand.Rand, specs []qbism.QuerySpec) {
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
}

func permuted(rng *rand.Rand, xs []int) []int {
	out := append([]int(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// oracle answers queries from public in-memory objects: the atlas
// structures, the load-time band REGIONs, region geometry and set
// algebra, and volume extraction over each stored volume read once from
// the LFM. It never calls the query path it checks.
type oracle struct {
	sys  *qbism.System
	vols map[int]*volume.Volume
	vh   map[int]lfm.Handle
	memo map[string]*answer
}

func newOracle(sys *qbism.System) (*oracle, error) {
	o := &oracle{sys: sys, vols: map[int]*volume.Volume{}, vh: map[int]lfm.Handle{}, memo: map[string]*answer{}}
	for _, st := range studyIDs(sys) {
		h, err := volumeHandle(sys, st)
		if err != nil {
			return nil, err
		}
		data, err := sys.LFM.Read(h)
		if err != nil {
			return nil, err
		}
		v, err := volume.New(sys.Curve, data)
		if err != nil {
			return nil, err
		}
		o.vols[st], o.vh[st] = v, h
	}
	return o, nil
}

func (o *oracle) bandRegion(study, lo, hi int) (*region.Region, error) {
	for _, b := range o.sys.BandRegions[study] {
		if int(b.Lo) == lo && int(b.Hi) == hi {
			return b.Region, nil
		}
	}
	return nil, fmt.Errorf("oracle: study %d has no band [%d,%d]", study, lo, hi)
}

// specRegion is the voxel set a spec selects.
func (o *oracle) specRegion(spec qbism.QuerySpec) (*region.Region, error) {
	c := o.sys.Curve
	switch {
	case spec.FullStudy:
		return region.Full(c), nil
	case spec.Box != nil:
		b := spec.Box
		return region.FromBox(c, region.Box{Min: sfc.Pt(b[0], b[1], b[2]), Max: sfc.Pt(b[3], b[4], b[5])})
	}
	var r *region.Region
	if spec.Structure != "" {
		st, err := o.sys.Atlas.ByName(spec.Structure)
		if err != nil {
			return nil, err
		}
		r = st.Region
	}
	if spec.HasBand {
		br, err := o.bandRegion(spec.StudyID, spec.BandLo, spec.BandHi)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return br, nil
		}
		return region.Intersect(br, r)
	}
	if r == nil {
		return nil, fmt.Errorf("oracle: spec %s selects nothing", spec.Label())
	}
	return r, nil
}

func (o *oracle) answer(spec qbism.QuerySpec) (*answer, error) {
	key := spec.Key()
	if a, ok := o.memo[key]; ok {
		return a, nil
	}
	r, err := o.specRegion(spec)
	if err != nil {
		return nil, err
	}
	vol, ok := o.vols[spec.StudyID]
	if !ok {
		return nil, fmt.Errorf("oracle: no study %d", spec.StudyID)
	}
	d, err := volume.Extract(vol, r)
	if err != nil {
		return nil, err
	}
	blob, err := qbism.MarshalDataRegion(d, o.sys.Cfg.Method)
	if err != nil {
		return nil, err
	}
	a := &answer{data: d, blob: blob, img: mipImage(d, o.sys.Side())}
	o.memo[key] = a
	return a, nil
}

// mipImage is the maximum-intensity projection along Z, computed with a
// plain loop over curve positions (image row 0 is the top, y = side-1).
func mipImage(d *volume.DataRegion, side int) []byte {
	img := make([]byte, side*side)
	c := d.Region.Curve()
	i := 0
	for _, run := range d.Region.Runs() {
		for id := run.Lo; id <= run.Hi; id++ {
			p := c.Point(id)
			idx := (side-1-int(p.Y))*side + int(p.X)
			if v := d.Values[i]; v > img[idx] {
				img[idx] = v
			}
			i++
		}
	}
	return img
}

// prepare builds the queries of a spec cycle: wire requests, oracle
// answers, and the handles and encodings the traced replay uses. It runs
// before any timed interval.
func prepare(sys *qbism.System, o *oracle, specs []qbism.QuerySpec) ([]*query, error) {
	var out []*query
	for _, spec := range specs {
		q := &query{spec: spec, volH: o.vh[spec.StudyID]}
		switch {
		case spec.FullStudy:
			q.kind = kindFull
		case spec.Box != nil:
			q.kind = kindBox
		case spec.HasBand && spec.Structure != "":
			q.kind = kindBandStructure
		case spec.HasBand:
			q.kind = kindBand
		default:
			q.kind = kindStructure
		}
		var err error
		if q.req, err = qbism.EncodeQueryRequest(spec); err != nil {
			return nil, err
		}
		if q.want, err = o.answer(spec); err != nil {
			return nil, err
		}
		if spec.Structure != "" {
			if q.structH, err = structureHandle(sys, spec.Structure); err != nil {
				return nil, err
			}
		}
		if spec.HasBand {
			if q.bandEnc, err = bandEncoding(sys, spec); err != nil {
				return nil, err
			}
			if q.bandH, err = bandHandle(sys, spec.StudyID, spec.BandLo, spec.BandHi, q.bandEnc); err != nil {
				return nil, err
			}
		}
		out = append(out, q)
	}
	return out, nil
}
