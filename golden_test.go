package cbar

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-output gate: tiny-scale sweeps over {base, ectn, olm} x
// {UN, ADV+1, hotspot, bursty}, {pb, val} under ADV+1, plus one sweep
// each with the adaptive engine, congestion management and a fault plan on, must reproduce the
// committed CSVs under testdata/golden byte for byte. The files were
// generated by cmd/sweep at the commit introducing each of them, so any
// change to simulation results — an intentional model change as much as
// an accidental determinism break — shows up as a diff here and must
// regenerate the goldens deliberately. CI additionally runs the same
// sweeps through the cmd/sweep binary and diffs them, covering the CLI
// layer; this test pins the public-API layer, so it must format rows
// exactly like cmd/sweep (see the format strings there).
//
// The figure and ablation tables in the same directory are pinned by
// TestGoldenFigures in internal/sim, not here: they cost seconds of
// CPU, and this package's tests run beside cbar/benchmark's
// timing-sensitive smoke test under `go test ./...`.
//
// Regenerate with:
//
//	go run ./cmd/sweep -scale tiny -routing ROUTING -traffic TRAF \
//	    -loads LOADS -warmup W -measure W -seeds 2 -workers 1 [FLAG] \
//	    > testdata/golden/sweep_tiny_NAME.csv

// goldenCase maps a golden file to the cmd/sweep flags it was generated
// with (window 0 = the scale default, as on the command line).
type goldenCase struct {
	file       string
	routing    []Algorithm
	traffic    string
	loads      []float64
	window     int64
	adaptive   bool
	congestion string
	faults     string
}

var goldenCases = []goldenCase{
	{file: "sweep_tiny_un.csv", routing: []Algorithm{Base, ECtN, OLM}, traffic: "un", loads: []float64{0.1, 0.3}, window: 400},
	{file: "sweep_tiny_adv1.csv", routing: []Algorithm{Base, ECtN, OLM}, traffic: "adv+1", loads: []float64{0.1, 0.3}, window: 400},
	{file: "sweep_tiny_hotspot.csv", routing: []Algorithm{Base, ECtN, OLM}, traffic: "hotspot:0.2,8", loads: []float64{0.1, 0.3}, window: 400},
	{file: "sweep_tiny_bursty.csv", routing: []Algorithm{Base, ECtN, OLM}, traffic: "un+burst:20,80", loads: []float64{0.1, 0.3}, window: 400},
	{file: "sweep_tiny_pb.csv", routing: []Algorithm{PB, VAL}, traffic: "adv+1", loads: []float64{0.1, 0.3}, window: 400},
	{file: "sweep_tiny_adaptive.csv", routing: []Algorithm{Base, ECtN}, traffic: "un", loads: []float64{0.2}, adaptive: true},
	{file: "sweep_tiny_congestion.csv", routing: []Algorithm{Base}, traffic: "hotspot:0.3,8", loads: []float64{0.7}, window: 400, congestion: "on"},
	{file: "sweep_tiny_faults.csv", routing: []Algorithm{Base}, traffic: "un", loads: []float64{0.4}, window: 600, faults: "random:5%@1000"},
}

// goldenSweep reproduces cmd/sweep's output for one golden case.
func goldenSweep(tc goldenCase) (string, error) {
	traf, err := ParseTraffic(tc.traffic)
	if err != nil {
		return "", err
	}
	cong, err := ParseCongestion(tc.congestion)
	if err != nil {
		return "", err
	}
	fl, err := ParseFaults(tc.faults)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s traffic on %s scale\n", traf.Name(), Tiny)
	sb.WriteString("load,algo,avg_latency_cycles,p99_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac,overflow_frac")
	if tc.adaptive {
		sb.WriteString(",ci_half_latency,measured_cycles,warmup_cycles,saturated,converged")
	}
	if cong.Enabled {
		sb.WriteString(",marked,notified,throttled,shed")
	}
	if fl.Enabled() {
		sb.WriteString(",dropped,retried,unroutable")
	}
	sb.WriteByte('\n')
	opt := SteadyOptions{Warmup: tc.window, Measure: tc.window, Seeds: 2, Adaptive: tc.adaptive}
	for _, a := range tc.routing {
		cfg := NewConfig(Tiny, a)
		cfg.Workers = 1
		cfg.Congestion = cong
		cfg.Faults = fl
		rs, err := Sweep(cfg, traf, tc.loads, opt)
		if err != nil {
			return "", err
		}
		for _, r := range rs {
			fmt.Fprintf(&sb, "%.3f,%s,%.2f,%d,%.4f,%.4f,%.4f",
				r.Load, r.Algo, r.AvgLatency, r.P99, r.Accepted, r.MisroutedGlobal, r.OverflowFrac)
			if tc.adaptive {
				fmt.Fprintf(&sb, ",%.2f,%d,%d,%t,%t",
					r.CIHalfLatency, r.MeasuredCycles, r.WarmupCycles, r.Saturated, r.Converged)
			}
			if cong.Enabled {
				fmt.Fprintf(&sb, ",%d,%d,%d,%d", r.Marked, r.Notified, r.Throttled, r.Shed)
			}
			if fl.Enabled() {
				fmt.Fprintf(&sb, ",%d,%d,%d", r.Dropped, r.Retried, r.Unroutable)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String(), nil
}

func TestGoldenSweeps(t *testing.T) {
	t.Parallel()
	for _, tc := range goldenCases {
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := goldenSweep(tc)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s (traffic %q):\n--- want\n%s--- got\n%s",
					tc.file, tc.traffic, want, got)
			}
		})
	}
}
