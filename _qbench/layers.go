package main

import (
	"qbism/internal/obs"
	"qbism/internal/qbism"
)

// snapshot holds the public counters sampled around one operation.
type snapshot struct {
	lfmPages, lfmReads      uint64
	messages                uint64
	udf, udfProbe, stmts    int64
	probes, decodes, degrad int64
	rows                    float64
}

func takeSnapshot(sys *qbism.System, msgs uint64) snapshot {
	l := sys.LFM.Stats()
	m := sys.Metrics
	return snapshot{
		lfmPages: l.PageReads, lfmReads: l.Reads,
		messages: msgs,
		udf:      m.Counter("sdb_udf_calls_total").Value(),
		udfProbe: m.Counter("sdb_udf_probe_calls_total").Value(),
		stmts:    m.Counter("sdb_queries_total").Value(),
		probes:   m.Counter("qbism_region_probe_total").Value(),
		decodes:  m.Counter("qbism_region_decode_total").Value(),
		degrad:   m.Counter("qbism_degraded_total").Value(),
		rows:     m.Histogram("sdb_operator_rows", obs.RowBuckets).Sum(),
	}
}

// layerAcc accumulates the traced phase's per-operation counts.
type layerAcc struct {
	ops                   float64
	lfmPages, lfmReads    float64
	messages, respBytes   float64
	udf, udfProbe         float64
	stmts, rows           float64
	probes, decodes, degr float64
	retries, voxels       float64
	walkNs                []float64
	lat                   latencies
}

// add accumulates the counter deltas of one operation.
func (a *layerAcc) add(before, after snapshot) {
	a.ops++
	a.lfmPages += float64(after.lfmPages - before.lfmPages)
	a.lfmReads += float64(after.lfmReads - before.lfmReads)
	a.messages += float64(after.messages - before.messages)
	a.udf += float64(after.udf - before.udf)
	a.udfProbe += float64(after.udfProbe - before.udfProbe)
	a.stmts += float64(after.stmts - before.stmts)
	a.rows += after.rows - before.rows
	a.probes += float64(after.probes - before.probes)
	a.decodes += float64(after.decodes - before.decodes)
	a.degr += float64(after.degrad - before.degrad)
}

// record sets the per-layer metrics the counters give, after the span
// timings are in r.layer. untraced holds the untraced phase's
// latencies, the base of the tracing overhead.
func (a *layerAcc) record(r *run, untraced latencies) {
	if a.ops == 0 {
		return
	}
	l := r.layer
	l["lfm.pages"] = a.lfmPages / a.ops
	l["lfm.reads"] = a.lfmReads / a.ops
	l["transport.messages"] = a.messages / a.ops
	l["transport.response_bytes"] = a.respBytes / a.ops
	l["transport.retries"] = a.retries
	l["sdb.udf_calls"] = a.udf / a.ops
	l["sdb.udf_probe_calls"] = a.udfProbe / a.ops
	if a.stmts > 0 {
		l["sdb.rows_per_result"] = a.rows / a.stmts
	}
	if a.probes+a.decodes > 0 {
		l["qbism.region_probe_ratio"] = a.probes / (a.probes + a.decodes)
	}
	l["qbism.degraded"] = a.degr
	l["dx.voxels"] = a.voxels / a.ops
	if a.lfmPages > 0 {
		l["volume.useful_byte_ratio"] = a.voxels / (a.lfmPages * 4096)
	}
	var walk []float64
	for _, ns := range a.walkNs {
		if ns > 0 {
			walk = append(walk, ns)
		}
	}
	l["sfc.point_ns_per_voxel"] = median(walk)
	all := a.lat.all()
	l["trace.latency_p50_ms"] = median(all)
	l["trace.overhead_pct"] = pairedOverhead(untraced, a.lat)
	l["bench.samples"] = float64(len(all))
}

// latencies holds operation latencies (ms) per operation key (the query
// or task), so a traced and an untraced phase compare like with like.
type latencies map[any][]float64

func (l latencies) add(key any, v float64) { l[key] = append(l[key], v) }

// median is the median over keys of each key's median latency: the
// latency of the middle query of the mix. A workload's queries differ
// in cost by orders of magnitude, and the plain sample median of such a
// mix sits on the boundary between two queries whenever the mix has an
// even number of them, where it jumps from one to the other with the
// operations' exact counts; this statistic averages the two instead.
func (l latencies) median() float64 {
	var meds []float64
	for _, vs := range l {
		meds = append(meds, median(vs))
	}
	return median(meds)
}

func (l latencies) all() []float64 {
	var out []float64
	for _, vs := range l {
		out = append(out, vs...)
	}
	return out
}

// pairedOverhead is the tracing overhead in percent: the median, over
// operation keys seen in both phases, of the traced median latency over
// the untraced one, minus one.
func pairedOverhead(untraced, traced latencies) float64 {
	var ratios []float64
	for k, t := range traced {
		if u, ok := untraced[k]; ok && median(u) > 0 {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return (median(ratios) - 1) * 100
}
