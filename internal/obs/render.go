package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// family splits a metric name into its family (name sans label suffix)
// and the label part, e.g. `c9_lb_slot_yield_total{slot="0"}` →
// (`c9_lb_slot_yield_total`, `{slot="0"}`). Per-instance metrics encode
// labels literally in the registry name; exposition stays dependency-free.
func family(name string) (string, string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (one # TYPE line per family, sorted for determinism).
func WritePrometheus(w io.Writer, s Snapshot) {
	writeTyped := func(names []string, typ string, value func(string) string) {
		sort.Strings(names)
		lastFam := ""
		for _, name := range names {
			fam, _ := family(name)
			if fam != lastFam {
				fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ)
				lastFam = fam
			}
			fmt.Fprintf(w, "%s %s\n", name, value(name))
		}
	}
	counters := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		counters = append(counters, k)
	}
	writeTyped(counters, "counter", func(k string) string {
		return fmt.Sprintf("%d", s.Counters[k])
	})
	gauges := make([]string, 0, len(s.Gauges))
	for k := range s.Gauges {
		gauges = append(gauges, k)
	}
	writeTyped(gauges, "gauge", func(k string) string {
		return fmt.Sprintf("%d", s.Gauges[k])
	})

	hists := make([]string, 0, len(s.Hists))
	for k := range s.Hists {
		hists = append(hists, k)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := s.Hists[name]
		fam, labels := family(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", h.Bounds[i])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", fam, mergeLabel(labels, "le", le), cum)
		}
		fmt.Fprintf(w, "%s_sum%s %d\n", fam, labels, h.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, cum)
	}
}

// mergeLabel splices an extra label into an existing literal label set.
func mergeLabel(labels, key, val string) string {
	extra := fmt.Sprintf("%s=%q", key, val)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// sections orders the human rendering; anything else sorts after these.
var sections = []string{"engine", "solver", "search", "cluster", "lb"}

func sectionOf(name string) string {
	rest, ok := strings.CutPrefix(name, "c9_")
	if !ok {
		return name
	}
	sec, _, ok := strings.Cut(rest, "_")
	if !ok {
		return rest
	}
	return sec
}

func shortName(name, sec string) string {
	short := strings.TrimPrefix(name, "c9_"+sec+"_")
	return strings.TrimSuffix(short, "_total")
}

// Render formats a snapshot as the human-readable exit report shared by
// c9 -stats, c9-worker, and c9-lb: one line per subsystem section with
// sorted key=value pairs, followed by derived hit-rate ratios for the
// solver tiers.
func Render(s Snapshot) string {
	bySec := make(map[string][]string)
	add := func(name, val string) {
		sec := sectionOf(name)
		bySec[sec] = append(bySec[sec], fmt.Sprintf("%s=%s", shortName(name, sec), val))
	}
	for _, name := range s.Names() {
		if c, ok := s.Counters[name]; ok {
			add(name, fmt.Sprintf("%d", c))
		} else if g, ok := s.Gauges[name]; ok {
			add(name, fmt.Sprintf("%d", g))
		} else if h, ok := s.Hists[name]; ok {
			add(name, fmt.Sprintf("n=%d sum=%d", h.Count(), h.Sum))
		}
	}
	order := append([]string(nil), sections...)
	var extra []string
	for sec := range bySec {
		known := false
		for _, k := range sections {
			if sec == k {
				known = true
				break
			}
		}
		if !known {
			extra = append(extra, sec)
		}
	}
	sort.Strings(extra)
	order = append(order, extra...)

	var b strings.Builder
	for _, sec := range order {
		pairs := bySec[sec]
		if len(pairs) == 0 {
			continue
		}
		sort.Strings(pairs)
		fmt.Fprintf(&b, "%-8s %s\n", sec+":", strings.Join(pairs, " "))
	}
	for _, r := range derivedRatios(s) {
		fmt.Fprintf(&b, "%-8s %s\n", "ratio:", r)
	}
	return b.String()
}

// derivedRatios reports the solver-tier hit rates operators actually
// tune on, computed once here instead of in three binaries.
func derivedRatios(s Snapshot) []string {
	var out []string
	rate := func(label string, n, d uint64) {
		if d == 0 {
			return
		}
		out = append(out, fmt.Sprintf("%s=%d/%d (%.1f%%)", label, n, d, 100*float64(n)/float64(d)))
	}
	queries, forks := s.Counter(MSolverQueries), s.Counter(MSolverForkQueries)
	rate("solver-cache-hit", s.Counter(MSolverCacheHits), queries)
	rate("fork-fast-path", s.Counter(MSolverForkFastHits), forks)
	rate("fork-interval-decided", s.Counter(MSolverForkIntervalHits), forks)
	rate("state-extend", s.Counter(MSolverStateExtends), queries)
	hits := s.Counter(MSolverPruneMemoHits)
	rate("prune-memo-hit", hits, hits+s.Counter(MSolverPruneMemoMisses))
	return out
}
