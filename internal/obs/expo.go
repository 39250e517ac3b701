package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4). Values are read with
// atomic loads; a scrape never blocks writers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		writeHeader(bw, f)
		switch f.kind {
		case kindGaugeFunc, kindCounterFunc:
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			writeFloat(bw, f.fn())
			bw.WriteByte('\n')
			continue
		}
		f.mu.Lock()
		ss := make([]*series, len(f.ss))
		copy(ss, f.ss)
		f.mu.Unlock()
		for _, s := range ss {
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, f.label, s.label, "", float64(s.c.Value()), true)
			case kindGauge:
				writeSample(bw, f.name, f.label, s.label, "", s.g.Value(), false)
			case kindHistogram:
				writeHistogram(bw, f, s)
			}
		}
	}
	return bw.Flush()
}

func writeHeader(w *bufio.Writer, f *family) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteString("\n# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind.String())
	w.WriteByte('\n')
}

// writeSample writes one line: name{label="value",le="bound"} v
func writeSample(w *bufio.Writer, name, label, value, le string, v float64, integer bool) {
	w.WriteString(name)
	if label != "" || le != "" {
		w.WriteByte('{')
		if label != "" {
			w.WriteString(label)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(value))
			w.WriteByte('"')
			if le != "" {
				w.WriteByte(',')
			}
		}
		if le != "" {
			w.WriteString(`le="`)
			w.WriteString(le)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	if integer {
		w.WriteString(strconv.FormatUint(uint64(v), 10))
	} else {
		writeFloat(w, v)
	}
	w.WriteByte('\n')
}

func writeHistogram(w *bufio.Writer, f *family, s *series) {
	h := s.h
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(w, f.name+"_bucket", f.label, s.label, formatBound(b), float64(cum), true)
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(w, f.name+"_bucket", f.label, s.label, "+Inf", float64(cum), true)
	writeSample(w, f.name+"_sum", f.label, s.label, "", h.Sum(), false)
	writeSample(w, f.name+"_count", f.label, s.label, "", float64(cum), true)
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func writeFloat(w *bufio.Writer, v float64) {
	var buf [32]byte
	w.Write(strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\n\"") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
