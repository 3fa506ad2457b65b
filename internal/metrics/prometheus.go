package metrics

import (
	"reflect"
	"strconv"
	"unicode"
)

// AppendPrometheus appends the Prometheus text exposition (format 0.0.4)
// of set — a struct, or a pointer to one, whose exported integer fields
// are read as gauges (a snapshot struct such as a node's memory stats),
// and, when set is a pointer, whose exported Counter, Gauge and Histogram
// fields are its metrics — to dst. Each is named prefix_<field in snake
// case>: a counter with _total, a gauge as is, a histogram in seconds with
// _seconds, as one cumulative _bucket line per non-empty bucket (≤ 251),
// +Inf, _sum and _count. Other fields are skipped, so the output is
// bounded by the struct.
func AppendPrometheus(dst []byte, prefix string, set any) []byte {
	v := reflect.Indirect(reflect.ValueOf(set))
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + "_" + snakeCase(f.Name)
		switch {
		case fv.CanInt():
			dst = appendSample(appendType(dst, name, "gauge"), name, "", float64(fv.Int()))
			continue
		case fv.CanUint():
			dst = appendSample(appendType(dst, name, "gauge"), name, "", float64(fv.Uint()))
			continue
		case !fv.CanAddr():
			continue
		}
		switch m := fv.Addr().Interface().(type) {
		case *Counter:
			dst = appendSample(appendType(dst, name+"_total", "counter"), name+"_total", "", float64(m.Value()))
		case *Gauge:
			dst = appendSample(appendType(dst, name, "gauge"), name, "", float64(m.Value()))
		case *Histogram:
			dst = m.appendPrometheus(appendType(dst, name+"_seconds", "histogram"), name+"_seconds")
		}
	}
	return dst
}

func (h *Histogram) appendPrometheus(dst []byte, name string) []byte {
	n := uint64(h.count.Load())
	var cum uint64
	if counts := h.counts.Load(); counts != nil {
		for b := 0; b < histBuckets-1; b++ {
			c := uint64(counts[b].Load())
			if c == 0 {
				continue
			}
			cum = min(cum+c, n) // a sample counted in its bucket and not yet in count
			_, hi := histBounds(b)
			dst = appendSample(dst, name+"_bucket", strconv.FormatFloat(hi/1e9, 'g', -1, 64), float64(cum))
		}
	}
	dst = appendSample(dst, name+"_bucket", "+Inf", float64(n))
	dst = appendSample(dst, name+"_sum", "", float64(h.total.Load())/1e9)
	return appendSample(dst, name+"_count", "", float64(n))
}

func appendType(dst []byte, name, kind string) []byte {
	dst = append(dst, "# TYPE "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, kind...)
	return append(dst, '\n')
}

// appendSample appends one sample line; le, when set, is its bucket label.
func appendSample(dst []byte, name, le string, v float64) []byte {
	dst = append(dst, name...)
	if le != "" {
		dst = append(dst, `{le="`...)
		dst = append(dst, le...)
		dst = append(dst, `"}`...)
	}
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, '\n')
}

// snakeCase turns a Go field name into a metric name: AdmitLatency →
// admit_latency, ExchangeRTT → exchange_rtt.
func snakeCase(s string) string {
	r := []rune(s)
	out := make([]rune, 0, len(r)+4)
	for i, c := range r {
		if unicode.IsUpper(c) && i > 0 &&
			(!unicode.IsUpper(r[i-1]) || i+1 < len(r) && unicode.IsLower(r[i+1])) {
			out = append(out, '_')
		}
		out = append(out, unicode.ToLower(c))
	}
	return string(out)
}
