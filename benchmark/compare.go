package main

import (
	"fmt"
	"io"

	"cbar/internal/stats"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads: the
// metric tables with their directions and regression bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict judges B's value against A's for one metric: "unresolved"
// when on either side the inter-quartile range of the samples over their
// median is wider than the bound (the runs cannot tell a change of that
// size from noise), otherwise "worse" when B is worse than A by more
// than the bound, and "ok" when not.
func verdict(a, b stat, m specMetric) string {
	spread := func(s stat) float64 {
		if len(s.Samples) < 2 {
			return 0
		}
		return ratio(stats.Quantile(s.Samples, 0.75)-stats.Quantile(s.Samples, 0.25), s.Value, 0)
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return "unresolved"
	}
	change := ratio(b.Value-a.Value, a.Value, 0)
	if m.Better == "higher" {
		change = -change
	}
	if change > m.Bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the ratio B/A, the bound and the verdict, plus the digest comparison;
// it reports whether any row is worse.
func compareFiles(out io.Writer, pathA, pathB, specPath string) (worse bool, err error) {
	var a, b results
	var spec benchmarkSpec
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	byName := map[string]*report{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(out, "A = %s (%s, %s)   B = %s (%s, %s)   ratios are B/A, base A\n", pathA, a.Commit, a.Date, pathB, b.Commit, b.Date)
	fmt.Fprintf(out, "%-18s %-24s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(out, "%-18s not measured end to end on both sides\n", ra.Workload)
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v := verdict(sa, sb, m)
			worse = worse || v == "worse"
			fmt.Fprintf(out, "%-18s %-24s %14.6g %14.6g %8.4f %7.3f  %s\n", ra.Workload, m.Name, sa.Value, sb.Value, ratio(sb.Value, sa.Value, 0), m.Bound, v)
		}
		if ra.Seed == rb.Seed {
			v := "ok"
			if ra.SimDigest != rb.SimDigest || ra.Failed != 0 || rb.Failed != 0 {
				v, worse = "worse", true
			}
			fmt.Fprintf(out, "%-18s %-24s %14s %14s %8s %7s  %s (failed operations A %d, B %d)\n", ra.Workload, "sim_digest", ra.SimDigest[:min(14, len(ra.SimDigest))], rb.SimDigest[:min(14, len(rb.SimDigest))], "", "exact", v, ra.Failed, rb.Failed)
		}
	}
	return worse, nil
}
