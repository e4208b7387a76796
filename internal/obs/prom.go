package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// PromContentType is the Prometheus text exposition format version this
// package writes.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): families in registration order, each with # HELP and
// # TYPE headers, histograms as cumulative _bucket{le=...} series plus
// _sum and _count. Values are read atomically; a scrape racing hot-path
// updates sees each sample at some valid point in time. The scrape path
// may allocate — only Observe/Add/Set are allocation-free.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var scratch []byte
	for _, f := range r.families {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ.String())
		bw.WriteByte('\n')
		for i, lv := range f.labelVals {
			switch {
			case f.typ == HistogramType:
				scratch = writeHistogram(bw, scratch, f, i, lv)
			case f.isFloat:
				scratch = writeSample(bw, scratch, f.name, "", f.label, lv, "", f.fcounters[i].Load())
			case f.typ == CounterType:
				bw.WriteString(f.name)
				writeLabels(bw, f.label, lv, "")
				bw.WriteByte(' ')
				scratch = strconv.AppendInt(scratch[:0], f.counters[i].Load(), 10)
				bw.Write(scratch)
				bw.WriteByte('\n')
			default: // gauge
				scratch = writeSample(bw, scratch, f.name, "", f.label, lv, "", f.gauges[i].Load())
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits one histogram instance as cumulative buckets. The
// underflow bucket folds into the first bound (its observations are below
// it by definition); the overflow bucket appears only in +Inf.
func writeHistogram(bw *bufio.Writer, scratch []byte, f *family, i int, lv string) []byte {
	h := f.hists[i]
	var snap HistogramSnapshot
	h.SnapshotInto(&snap)
	cum := snap.Underflow
	for b := range snap.Counts {
		cum += snap.Counts[b]
		le := strconv.FormatFloat(snap.UpperBound(b), 'g', -1, 64)
		bw.WriteString(f.name)
		bw.WriteString("_bucket")
		writeLabels(bw, f.label, lv, le)
		bw.WriteByte(' ')
		scratch = strconv.AppendInt(scratch[:0], cum, 10)
		bw.Write(scratch)
		bw.WriteByte('\n')
	}
	bw.WriteString(f.name)
	bw.WriteString("_bucket")
	writeLabels(bw, f.label, lv, "+Inf")
	bw.WriteByte(' ')
	scratch = strconv.AppendInt(scratch[:0], snap.Count, 10)
	bw.Write(scratch)
	bw.WriteByte('\n')
	scratch = writeSample(bw, scratch, f.name, "_sum", f.label, lv, "", snap.Sum)
	bw.WriteString(f.name)
	bw.WriteString("_count")
	writeLabels(bw, f.label, lv, "")
	bw.WriteByte(' ')
	scratch = strconv.AppendInt(scratch[:0], snap.Count, 10)
	bw.Write(scratch)
	bw.WriteByte('\n')
	return scratch
}

// writeSample emits one float sample line. NaN serializes as "NaN", which
// the exposition format permits (gauges with no measurement yet).
func writeSample(bw *bufio.Writer, scratch []byte, name, suffix, label, lv, le string, v float64) []byte {
	bw.WriteString(name)
	bw.WriteString(suffix)
	writeLabels(bw, label, lv, le)
	bw.WriteByte(' ')
	switch {
	case math.IsNaN(v):
		bw.WriteString("NaN")
	case math.IsInf(v, 1):
		bw.WriteString("+Inf")
	case math.IsInf(v, -1):
		bw.WriteString("-Inf")
	default:
		scratch = strconv.AppendFloat(scratch[:0], v, 'g', -1, 64)
		bw.Write(scratch)
	}
	bw.WriteByte('\n')
	return scratch
}

// writeLabels emits the {label="v",le="..."} block, or nothing when both
// are absent.
func writeLabels(bw *bufio.Writer, label, lv, le string) {
	if label == "" && le == "" {
		return
	}
	bw.WriteByte('{')
	if label != "" {
		bw.WriteString(label)
		bw.WriteString(`="`)
		bw.WriteString(lv)
		bw.WriteByte('"')
		if le != "" {
			bw.WriteByte(',')
		}
	}
	if le != "" {
		bw.WriteString(`le="`)
		bw.WriteString(le)
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}
