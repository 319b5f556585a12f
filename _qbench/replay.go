package main

import (
	"bytes"
	"fmt"
	"time"

	"qbism/internal/dx"
	"qbism/internal/lfm"
	"qbism/internal/qbism"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

// pointSink keeps the curve walk's result live.
var pointSink sfc.Point

// dataStatement is the data SQL the MedicalServer runs for q, with its
// bind values.
func dataStatement(q *query) (string, []sdb.Value) {
	s := q.spec
	study := sdb.Int(int64(s.StudyID))
	switch q.kind {
	case kindFull:
		return fullSQL, []sdb.Value{study}
	case kindBox:
		b := s.Box
		return boxSQL, []sdb.Value{
			sdb.Int(int64(b[0])), sdb.Int(int64(b[1])), sdb.Int(int64(b[2])),
			sdb.Int(int64(b[3])), sdb.Int(int64(b[4])), sdb.Int(int64(b[5])), study}
	case kindStructure:
		return structureSQL, []sdb.Value{study, sdb.Str(s.Structure)}
	case kindBand:
		return bandSQL, []sdb.Value{study, sdb.Int(int64(s.BandLo)), sdb.Int(int64(s.BandHi)), sdb.Str(q.bandEnc)}
	default:
		return bandStructureSQL, []sdb.Value{study, sdb.Int(int64(s.BandLo)), sdb.Int(int64(s.BandHi)),
			sdb.Str(q.bandEnc), sdb.Str(s.Structure)}
	}
}

// drain runs a statement and reads every row.
func drain(db *sdb.DB, sql string, args ...sdb.Value) ([][]sdb.Value, error) {
	rows, err := db.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]sdb.Value
	for rows.Next() {
		out = append(out, rows.Row())
	}
	return out, rows.Err()
}

// readRanges issues the LFM reads extraction performs for r: its runs
// mapped to page ranges, merged across gaps of at most gap pages.
func readRanges(m *lfm.Manager, h lfm.Handle, r *region.Region, gap uint64) error {
	size, err := m.Size(h)
	if err != nil {
		return err
	}
	ps := m.PageSize()
	var first, last uint64
	open := false
	flush := func() error {
		off := first * ps
		n := (last - first + 1) * ps
		if off+n > size {
			n = size - off
		}
		_, err := m.ReadAt(h, off, n)
		return err
	}
	for _, run := range r.Runs() {
		f, l := run.Lo/ps, run.Hi/ps
		if open && f <= last+1+gap {
			if l > last {
				last = l
			}
			continue
		}
		if open {
			if err := flush(); err != nil {
				return err
			}
		}
		first, last, open = f, l, true
	}
	if open {
		return flush()
	}
	return nil
}

// replayQuery re-runs one query's steps through each layer's public
// functions, recording them under the operation span op (whose measured
// duration is opDur, starting at opStart):
//
//	op ⊃ transport.call ⊃ qbism.handle ⊃ sdb.query ⊃ {sdb.parse, lfm.read,
//	     rencode.*, region.*, volume.extract ⊃ lfm.read}
//	op ⊃ qbism.client ⊃ {dx.import, dx.render ⊃ sfc.point}
//
// qbism.client is derived: the operation's time minus transport.call.
// Every replayed answer is checked against the oracle too. It returns
// the response size and the curve walk's nanoseconds per result voxel
// (0 for an empty result).
func replayQuery(tr *tracer, sys *qbism.System, call func(req []byte) ([]byte, error), q *query, req, op int, opStart time.Time, opDur time.Duration) (respBytes int, walkNs float64, err error) {
	var resp []byte
	callID, err := tr.timed(req, op, "transport.call", func() error {
		var err error
		resp, err = call(q.req)
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("replay transport.call: %w", err)
	}
	handleID, err := tr.timed(req, callID, "qbism.handle", func() error {
		_, err := sys.ServeRPC(nil, qbism.QueryMethod, q.req)
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("replay ServeRPC: %w", err)
	}
	if err := replaySQL(tr, sys, q, req, handleID); err != nil {
		return 0, 0, err
	}

	_, blob, err := qbism.DecodeQueryResponse(resp)
	if err == nil {
		err = checkBlob(blob, q)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("replay: %w", err)
	}
	callDur := tr.spans[callID].dur()
	clientID := tr.add(req, op, "qbism.client", opStart, opStart.Add(opDur-callDur))
	var field *dx.Field
	if _, err := tr.timed(req, clientID, "dx.import", func() error {
		d, err := qbism.UnmarshalDataRegion(blob)
		if err != nil {
			return err
		}
		field, _, err = dx.ImportVolume(d)
		return err
	}); err != nil {
		return 0, 0, err
	}
	var img *dx.Image
	renderID, err := tr.timed(req, clientID, "dx.render", func() error {
		var err error
		img, err = field.Render(dx.RenderOpts{Axis: 2, Mode: dx.MIP})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(img.Pix, q.want.img) {
		return 0, 0, fmt.Errorf("replayed %s: image differs from the oracle", q.spec.Label())
	}
	return len(resp), walkCurve(tr, req, renderID, field.Data.Region), nil
}

// walkCurve times Curve.Point over every position of r (the decode the
// renderer performs per voxel) and returns nanoseconds per voxel.
func walkCurve(tr *tracer, req, parent int, r *region.Region) float64 {
	c := r.Curve()
	id, _ := tr.timed(req, parent, "sfc.point", func() error {
		for _, run := range r.Runs() {
			for i := run.Lo; i <= run.Hi; i++ {
				pointSink = c.Point(i)
			}
		}
		return nil
	})
	if n := r.NumVoxels(); n > 0 {
		return float64(tr.spans[id].dur().Nanoseconds()) / float64(n)
	}
	return 0
}

// replaySQL re-runs the handler's two statements through sdb, then the
// data statement's UDF bodies step by step.
func replaySQL(tr *tracer, sys *qbism.System, q *query, req, parent int) error {
	db := sys.DB
	dataSQL, args := dataStatement(q)
	sqlID, err := tr.timed(req, parent, "sdb.query", func() error {
		if _, err := drain(db, metadataSQL, sdb.Int(int64(q.spec.StudyID)), sdb.Str(atlasName)); err != nil {
			return err
		}
		rows, err := drain(db, dataSQL, args...)
		if err == nil && len(rows) != 1 {
			err = fmt.Errorf("data SQL returned %d rows", len(rows))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("replay sdb.query: %w", err)
	}
	if _, err := tr.timed(req, sqlID, "sdb.parse", func() error {
		if _, err := sdb.Parse(metadataSQL); err != nil {
			return err
		}
		_, err := sdb.Parse(dataSQL)
		return err
	}); err != nil {
		return err
	}
	return replayUDF(tr, sys, q, req, sqlID)
}

// replayUDF performs what the data statement's spatial UDFs do, one
// public call per span.
func replayUDF(tr *tracer, sys *qbism.System, q *query, req, parent int) error {
	m := sys.LFM
	method := sys.Cfg.Method
	var data []byte
	read := func(h lfm.Handle) error {
		_, err := tr.timed(req, parent, "lfm.read", func() error {
			var err error
			data, err = m.Read(h)
			return err
		})
		return err
	}
	var r *region.Region
	decode := func(b []byte) error {
		_, err := tr.timed(req, parent, "rencode.decode", func() error {
			var err error
			r, err = rencode.Decode(b)
			return err
		})
		return err
	}
	// encodeDecode is an intermediate REGION value: encoded by one UDF,
	// decoded by extractVoxels.
	encodeDecode := func() error {
		var enc []byte
		if _, err := tr.timed(req, parent, "rencode.encode", func() error {
			var err error
			enc, err = rencode.Encode(method, r)
			return err
		}); err != nil {
			return err
		}
		return decode(enc)
	}

	switch q.kind {
	case kindFull:
		if err := read(q.volH); err != nil {
			return err
		}
		_, err := tr.timed(req, parent, "rencode.encode", func() error {
			_, err := qbism.MarshalDataRegion(&volume.DataRegion{Region: region.Full(sys.Curve), Values: data}, method)
			return err
		})
		return err
	case kindBox:
		b := q.spec.Box
		if _, err := tr.timed(req, parent, "region.frombox", func() error {
			var err error
			r, err = region.FromBox(sys.Curve, region.Box{Min: sfc.Pt(b[0], b[1], b[2]), Max: sfc.Pt(b[3], b[4], b[5])})
			return err
		}); err != nil {
			return err
		}
		if err := encodeDecode(); err != nil {
			return err
		}
	case kindStructure:
		if err := read(q.structH); err != nil {
			return err
		}
		if err := decode(data); err != nil {
			return err
		}
	case kindBand:
		if err := read(q.bandH); err != nil {
			return err
		}
		if err := decode(data); err != nil {
			return err
		}
	case kindBandStructure:
		if err := read(q.bandH); err != nil {
			return err
		}
		bandData := data
		if err := read(q.structH); err != nil {
			return err
		}
		if err := decode(data); err != nil {
			return err
		}
		sr := r
		if mm, ok := rencode.MethodOf(bandData); ok && mm == rencode.K3Tree {
			if _, err := tr.timed(req, parent, "rencode.probe", func() error {
				p, err := rencode.ParseK3(bandData)
				if err != nil {
					return err
				}
				r, err = region.IntersectQ(p, sr)
				return err
			}); err != nil {
				return err
			}
		} else {
			if err := decode(bandData); err != nil {
				return err
			}
			br := r
			if _, err := tr.timed(req, parent, "region.intersect", func() error {
				var err error
				r, err = region.IntersectQ(br, sr)
				return err
			}); err != nil {
				return err
			}
		}
		if err := encodeDecode(); err != nil {
			return err
		}
	}

	var d *volume.DataRegion
	extractID, err := tr.timed(req, parent, "volume.extract", func() error {
		var err error
		d, err = qbism.ExtractStoredOpts(m, q.volH, r, qbism.ExtractOpts{GapPages: sys.Cfg.ReadGapPages})
		return err
	})
	if err != nil {
		return err
	}
	if _, err := tr.timed(req, extractID, "lfm.read", func() error {
		return readRanges(m, q.volH, r, sys.Cfg.ReadGapPages)
	}); err != nil {
		return err
	}
	_, err = tr.timed(req, parent, "rencode.encode", func() error {
		_, err := qbism.MarshalDataRegion(d, method)
		return err
	})
	return err
}
