// Command benchmark is the repository's benchmark: six figure-shaped
// workloads, end-to-end metrics measured through the public cbar API with
// tracing off, and per-layer metrics from a separate traced replay on the
// benchmark's own layer driver. README.md in this directory explains the
// workloads, the metrics and how to read them; BENCHMARK.json at the
// repository root fixes the regression bounds.
//
//	go run ./benchmark                         all workloads, both passes
//	go run ./benchmark -workload small_un_sweep -trace 0 -seed 7
//	go run ./benchmark -compare A.json B.json  verdict per workload and metric
//
// A run of all workloads re-executes this binary once per workload, so
// peak RSS and garbage-collector state are per workload, writes the
// merged results file and appends one line to benchmark/history.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// results is the schema of the results file.
type results struct {
	Commit     string    `json:"commit"`
	Date       string    `json:"date"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       uint64    `json:"seed"`
	Skipped    []string  `json:"skipped,omitempty"`
	Workloads  []*report `json:"workloads"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all six, each in its own child process)")
		rounds       = flag.Int("rounds", 0, "untraced passes per workload (0 = the workload's own count; otherwise at least 3)")
		seed         = flag.Uint64("seed", 1, "seed of the generated inputs (each offered load is scaled by a factor within 0.1 % of 1)")
		trace        = flag.String("trace", "both", "0 = end-to-end metrics only, 1 = per-layer metrics only, both")
		out          = flag.String("o", "", "results file (default benchmark/out/results.json for a run of all workloads, none for one)")
		compare      = flag.String("compare", "", "compare results file A (this flag) with B (the argument) against BENCHMARK.json's bounds")
	)
	// The benchmark driver passes -seconds (BENCHMARK.json's run_seconds)
	// to every run. Run length is set by the workloads' pass counts, which
	// are sized for run_seconds, so that two commits do the same work; the
	// flag is accepted for the driver's sake and has no effect.
	flag.Float64("seconds", 0, "accepted from the benchmark driver and ignored: run length is fixed by the workloads' pass counts")
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(2, "usage: benchmark -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, *compare, flag.Arg(0), "BENCHMARK.json")
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatal(2, "-trace must be 0, 1 or both, got %q", *trace)
	}
	if *rounds < 0 || (*rounds > 0 && *rounds < minRounds) {
		fatal(2, "-rounds must be 0 or at least %d, got %d", minRounds, *rounds)
	}

	res := &results{
		Commit: gitDescribe(), Date: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed,
	}
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(2, "%v", err)
		}
		if w.parallel && w.workers < 2 {
			fatal(2, w.name+" refused: it needs at least 2 CPUs, this host has %d", runtime.NumCPU())
		}
		rep := w.run(*seed, *rounds, *trace)
		res.Workloads = []*report{rep}
		printReport(rep)
		if *out != "" {
			if werr := writeJSON(*out, res); werr != nil {
				fatal(2, "%v", werr)
			}
		}
		finish(res, func(r *report, metric string) string { return metric })
		return
	}

	// All workloads: one child process each.
	if *out == "" {
		*out = filepath.Join("benchmark", "out", "results.json")
	}
	self, err := os.Executable()
	if err != nil {
		fatal(2, "%v", err)
	}
	for _, w := range workloads() {
		if w.parallel && w.workers < 2 {
			fmt.Printf("workload %s skipped: it needs at least 2 CPUs, this host has %d\n", w.name, runtime.NumCPU())
			res.Skipped = append(res.Skipped, w.name)
			continue
		}
		part := *out + "." + w.name + ".part"
		cmd := exec.Command(self,
			"-workload", w.name, "-trace", *trace, "-o", part,
			"-seed", fmt.Sprint(*seed), "-rounds", fmt.Sprint(*rounds))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var child results
		if err := readJSON(part, &child); err != nil {
			fatal(2, "workload %s produced no results (%v): %v", w.name, runErr, err)
		}
		os.Remove(part)
		for _, r := range child.Workloads {
			if runErr != nil && r.Error == "" && r.Failed == 0 {
				r.Error = fmt.Sprintf("child process: %v", runErr)
			}
		}
		res.Workloads = append(res.Workloads, child.Workloads...)
	}
	crossCheckDigests(res)
	if err := writeJSON(*out, res); err != nil {
		fatal(2, "%v", err)
	}
	fmt.Printf("results written to %s\n", *out)
	if err := appendHistory(filepath.Join("benchmark", "history.jsonl"), res); err != nil {
		fatal(2, "%v", err)
	}
	finish(res, func(r *report, metric string) string { return r.Workload + "/" + metric })
}

// crossCheckDigests enforces sameDigestAs: paper_un_par's statistics
// must be bit-identical to paper_un_w1's, the two run the same point.
func crossCheckDigests(res *results) {
	byName := map[string]*report{}
	for _, r := range res.Workloads {
		byName[r.Workload] = r
	}
	for _, w := range workloads() {
		r, ref := byName[w.name], byName[w.sameDigestAs]
		if r == nil || ref == nil || r.SimDigest == ref.SimDigest {
			continue
		}
		r.Failed, r.OpsFailedFrac = r.Attempted, 1
		msg := fmt.Sprintf("sim_digest %s differs from %s's %s", r.SimDigest, ref.Workload, ref.SimDigest)
		r.Failures = append(r.Failures, msg)
		fmt.Printf("workload %s: FAILED %s\n", w.name, msg)
	}
}

// finish prints the result line and exits non-zero unless every
// workload was measured in full and every operation succeeded.
func finish(res *results, key func(r *report, metric string) string) {
	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, r := range res.Workloads {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, set := range []map[string]stat{r.EndToEnd, r.PerLayer} {
			for name, s := range set {
				line.Metrics[key(r, name)] = lineMetric{s.Value, s.Unit}
			}
		}
		line.Correct = line.Correct && r.Attempted > 0 && r.Failed == 0 && r.Error == ""
	}
	if len(res.Workloads) == 0 {
		line.Correct = false
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(2, "%v", err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

// printReport prints every metric of a workload by name with its unit.
func printReport(r *report) {
	fmt.Printf("workload %s  seed %d  workers %d  points %d  sim_cycles %d\n", r.Workload, r.Seed, r.Workers, r.Points, r.SimCycles)
	printSet := func(title string, defs []metricDef, set map[string]stat) {
		if set == nil {
			return
		}
		fmt.Printf("  %s\n", title)
		for _, d := range defs {
			s := set[d.name]
			if s.N > 1 {
				fmt.Printf("    %-32s %14.6g %-16s median of %d, min %.6g max %.6g\n", d.name, s.Value, s.Unit, s.N, s.Min, s.Max)
			} else {
				fmt.Printf("    %-32s %14.6g %s\n", d.name, s.Value, s.Unit)
			}
		}
	}
	printSet("end to end (tracing off, public API)", endToEndMetrics, r.EndToEnd)
	printSet(fmt.Sprintf("per layer (traced replay, routing and stats spans sampled 1 in %d)", sampleEvery), perLayerMetrics, r.PerLayer)
	fmt.Printf("  %-34s %14.6g ratio (%d failed of %d attempted operations)\n", "ops_failed_frac", r.OpsFailedFrac, r.Failed, r.Attempted)
	fmt.Printf("  %-34s %s\n", "sim_digest", r.SimDigest)
	if r.EndToEnd != nil && !r.PeakRSSPerPass {
		fmt.Println("  peak_rss_mb is the peak of the process, not of one pass: the kernel refused the high-water-mark reset")
	}
	if r.Ungated != "" {
		fmt.Printf("  measured, not in BENCHMARK.json's gate: %s\n", r.Ungated)
	}
	if r.Error != "" {
		fmt.Printf("  FAILED to measure: %s\n", r.Error)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// gitDescribe names the commit being measured, "unknown" outside a git
// checkout.
func gitDescribe() string {
	b, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// historyLine is one run's entry in history.jsonl.
type historyLine struct {
	Commit string                        `json:"commit"`
	Date   string                        `json:"date"`
	NumCPU int                           `json:"nproc"`
	Seed   uint64                        `json:"seed"`
	Values map[string]map[string]float64 `json:"end_to_end"`
}

// appendHistory appends the run's end-to-end values to the trajectory.
func appendHistory(path string, res *results) error {
	h := historyLine{Commit: res.Commit, Date: res.Date, NumCPU: res.NumCPU, Seed: res.Seed, Values: map[string]map[string]float64{}}
	for _, r := range res.Workloads {
		if r.EndToEnd == nil {
			continue
		}
		m := map[string]float64{}
		for name, s := range r.EndToEnd {
			m[name] = s.Value
		}
		h.Values[r.Workload] = m
	}
	if len(h.Values) == 0 {
		return nil
	}
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
