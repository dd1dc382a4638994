package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// OpenMetrics/Prometheus text exposition. Snapshot sources registered
// with RegisterMetrics are merged and rendered at /metrics (mounted on
// the ServeDebug mux and servable standalone via ServeMetrics), so any
// tpsta host with debug endpoints becomes scrapeable.
//
// Naming: snapshot keys keep the repository's dotted discipline
// ("core.paths_recorded", enforced by stalint obscheck); the exposition
// maps them to Prometheus-legal names by replacing separators with
// underscores and prefixing the tool name — "core.paths_recorded"
// becomes "tpsta_core_paths_recorded_total". Counters gain the
// mandatory _total suffix; histograms export the standard cumulative
// _bucket/_sum/_count triple with le in seconds.

// MetricsSource produces a point-in-time Snapshot for exposition.
type MetricsSource func() Snapshot

var (
	metricsMu      sync.Mutex
	metricsSources = map[string]MetricsSource{}
	metricsHelp    = map[string]string{}
)

// RegisterMetrics registers (or replaces) a named snapshot source for
// the /metrics exposition. Sources are rendered in name order; a nil
// source unregisters the name.
func RegisterMetrics(name string, src MetricsSource) {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if src == nil {
		delete(metricsSources, name)
		return
	}
	metricsSources[name] = src
}

// MetricHelp attaches help text to a snapshot key (e.g.
// "core.paths_recorded"); the exposition emits it as the family's
// # HELP line.
func MetricHelp(key, help string) {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	metricsHelp[key] = help
}

// mergedSnapshot collects every registered source into one Snapshot
// (sources are disjoint by naming discipline; on a key collision the
// lexically-last source wins).
func mergedSnapshot() (Snapshot, map[string]string) {
	metricsMu.Lock()
	names := make([]string, 0, len(metricsSources))
	for n := range metricsSources {
		names = append(names, n)
	}
	srcs := make([]MetricsSource, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		srcs = append(srcs, metricsSources[n])
	}
	help := make(map[string]string, len(metricsHelp))
	for k, v := range metricsHelp {
		help[k] = v
	}
	metricsMu.Unlock()

	merged := Snapshot{}
	for _, src := range srcs {
		snap := src()
		for k, v := range snap.Counters {
			if merged.Counters == nil {
				merged.Counters = map[string]int64{}
			}
			merged.Counters[k] = v
		}
		for k, v := range snap.Gauges {
			if merged.Gauges == nil {
				merged.Gauges = map[string]int64{}
			}
			merged.Gauges[k] = v
		}
		for k, v := range snap.Histograms {
			if merged.Histograms == nil {
				merged.Histograms = map[string]HistogramStat{}
			}
			merged.Histograms[k] = v
		}
	}
	return merged, help
}

// promName maps a dotted snapshot key to a Prometheus-legal metric
// name under the tool prefix.
func promName(key string) string {
	var b strings.Builder
	b.WriteString("tpsta_")
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sortedKeys returns the map's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeHelp(w io.Writer, name, key string, help map[string]string) {
	if h, ok := help[key]; ok && h != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, h)
	}
}

// fmtFloat renders a float in the shortest exact form.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteOpenMetrics renders snap as OpenMetrics text, terminated by the
// mandatory # EOF line.
func WriteOpenMetrics(w io.Writer, snap Snapshot, help map[string]string) error {
	bw := &errWriter{w: w}
	for _, k := range sortedKeys(snap.Counters) {
		name := promName(k)
		writeHelp(bw, name, k, help)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s_total %d\n", name, snap.Counters[k])
	}
	for _, k := range sortedKeys(snap.Gauges) {
		name := promName(k)
		writeHelp(bw, name, k, help)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, snap.Gauges[k])
	}
	for _, k := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[k]
		name := promName(k) + "_seconds"
		writeHelp(bw, name, k, help)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", name, fmtFloat(b.UpperNs/1e9), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", name, fmtFloat(float64(h.SumNs)/1e9))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.Count)
	}
	fmt.Fprint(bw, "# EOF\n")
	return bw.err
}

// errWriter latches the first write error so the exposition loop stays
// linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}

// MetricsHandler serves the merged registered sources as OpenMetrics
// text.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap, help := mergedSnapshot()
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = WriteOpenMetrics(w, snap, help)
	})
}

// ServeMetrics starts an HTTP server on addr exposing only /metrics.
// It returns the bound address (useful with ":0") and never blocks;
// the server runs until the process exits.
func ServeMetrics(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}
