package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbar/internal/routing"
	"cbar/internal/sim"
)

// runCLI drives one command line in-process.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// golden compares a command line's output with a file under the
// repository's testdata/golden.
func golden(t *testing.T, file, line string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	code, got, stderr := runCLI(strings.Fields(line)...)
	if code != 0 {
		t.Fatalf("cbar %s: exit %d\n%s", line, code, stderr)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s (cbar %s):\n--- want\n%s--- got\n%s", file, line, want, got)
	}
}

// TestGoldenSweeps is the golden-output gate of the sweep CSV:
// tiny-scale sweeps over {base, ectn, olm} x {UN, ADV+1, hotspot,
// bursty}, {pb, val} under ADV+1, plus one sweep each with the adaptive
// engine, congestion management and a fault plan on, must reproduce the
// committed CSVs under testdata/golden byte for byte. The command lines
// are the ones CI's golden gate runs through the built binary. Any change
// to simulation results (an intentional model change as much as an
// accidental determinism break) shows up as a diff here and must
// regenerate the goldens deliberately:
//
//	go run ./cmd/cbar sweep FLAGS > testdata/golden/sweep_tiny_NAME.csv
//
// The figure and ablation tables in the same directory are pinned by
// TestGoldenFigures in internal/sim.
func TestGoldenSweeps(t *testing.T) {
	t.Parallel()
	const fixed = " -loads 0.1,0.3 -warmup 400 -measure 400 -seeds 2 -workers 1"
	for _, tc := range []struct{ file, line string }{
		{"sweep_tiny_un.csv", "-routing base,ectn,olm -traffic un" + fixed},
		{"sweep_tiny_adv1.csv", "-routing base,ectn,olm -traffic adv+1" + fixed},
		{"sweep_tiny_hotspot.csv", "-routing base,ectn,olm -traffic hotspot:0.2,8" + fixed},
		{"sweep_tiny_bursty.csv", "-routing base,ectn,olm -traffic un+burst:20,80" + fixed},
		{"sweep_tiny_pb.csv", "-routing pb,val -traffic adv+1" + fixed},
		{"sweep_tiny_adaptive.csv", "-routing base,ectn -traffic un -loads 0.2 -seeds 2 -adaptive -workers 1"},
		{"sweep_tiny_congestion.csv", "-routing base -traffic hotspot:0.3,8 -loads 0.7 -warmup 400 -measure 400 -seeds 2 -congestion on -workers 1"},
		{"sweep_tiny_faults.csv", "-routing base -traffic un -loads 0.4 -warmup 600 -measure 600 -seeds 2 -faults random:5%@1000 -workers 1"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			golden(t, tc.file, "sweep -scale tiny "+tc.line)
		})
	}
}

// TestGoldenPointTransient pins the point and transient printouts to
// those of dfsim, the command they replace. The files were written by
// dfsim built from the last commit that had it:
//
//	dfsim -scale tiny -routing base -traffic un -load 0.3 -warmup 400 -measure 400 -seeds 2 -workers 1
//	dfsim -scale tiny -routing base -traffic un -load 0.4 -warmup 600 -measure 600 -seeds 2 -workers 1 -congestion on -faults random:5%@1000
//	dfsim -scale tiny -routing ectn -transient -traffic un -traffic2 adv+1 -load 0.2 -warmup 1000 -post 1200 -bucket 60 -seeds 2 -workers 1
func TestGoldenPointTransient(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ file, line string }{
		{"point_tiny.txt", "point -scale tiny -routing base -traffic un -load 0.3 -warmup 400 -measure 400 -seeds 2 -workers 1"},
		{"point_tiny_congestion_faults.txt", "point -scale tiny -routing base -traffic un -load 0.4 -warmup 600 -measure 600 -seeds 2 -workers 1 -congestion on -faults random:5%@1000"},
		{"transient_tiny.csv", "transient -scale tiny -routing ectn -traffic un -traffic2 adv+1 -load 0.2 -warmup 1000 -post 1200 -bucket 60 -seeds 2 -workers 1"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			golden(t, tc.file, tc.line)
		})
	}
}

// TestCommandLineRejected pins the command lines cbar refuses. Exit 2,
// before simulating anything: a missing or unknown subcommand (listing
// the subcommands), an argument left after the flags (naming it; the
// flag package stops at the first one, so without the check the rest of
// the line would be dropped silently), and a flag the subcommand does
// not read. Exit 1: a value the flag's parser or the network build
// rejects.
// TestPointWarnsOfStall runs the wedge of sim's TestStallCycles (MIN at
// tiny, UN 0.3, a fifth of the global links failed at cycle 200) and its
// healthy twin: cbar warns on stderr for the first alone, and stdout,
// which the goldens pin, does not change. Then a sweep at tiny's default
// budget, whose 1 200-cycle window is shorter than stallBound: PB's
// ADV+1 wedge at load 0.5 lasts the whole window and warns against a
// quarter of it, while MIN, Base and ECtN, which deliver every few
// cycles, do not.
func TestPointWarnsOfStall(t *testing.T) {
	t.Parallel()
	const line = "point -scale tiny -routing min -traffic un -load 0.3 -warmup 1000 -measure 8000 -seeds 2 -faults "
	for _, tc := range []struct {
		faults string
		warn   bool
	}{{"random:20%@200", true}, {"off", false}} {
		code, stdout, stderr := runCLI(strings.Fields(line + tc.faults)...)
		if code != 0 {
			t.Fatalf("faults %s: exit %d\n%s", tc.faults, code, stderr)
		}
		if got := strings.Contains(stderr, "the fabric stalled"); got != tc.warn {
			t.Errorf("faults %s: stall warning %v, want %v; stderr:\n%s", tc.faults, got, tc.warn, stderr)
		}
		if strings.Contains(stdout, "stall") {
			t.Errorf("faults %s: the warning reached stdout:\n%s", tc.faults, stdout)
		}
	}

	code, stdout, stderr := runCLI(strings.Fields("sweep -scale tiny -routing pb,min,base,ectn -traffic adv+1 -loads 0.5 -workers 1")...)
	if code != 0 {
		t.Fatalf("sweep: exit %d\n%s", code, stderr)
	}
	warnings := strings.Split(strings.TrimSpace(stderr), "\n")
	if len(warnings) != 1 || !strings.Contains(warnings[0], "PB, ADV+1 at load 0.500") || !strings.Contains(warnings[0], "the fabric stalled") {
		t.Errorf("sweep: want one stall warning, for PB; stderr:\n%s", stderr)
	}
	if rows := strings.Count(stdout, "\n"); rows != 2+4 || strings.Contains(stdout, "stall") {
		t.Errorf("sweep: stdout is not the comment, the header and four rows:\n%s", stdout)
	}
}

func TestCommandLineRejected(t *testing.T) {
	for _, tc := range []struct {
		line   string
		code   int
		stderr string
	}{
		{"", 2, "point|transient|sweep|figures"},
		{"dfsim -load 0.2", 2, "point|transient|sweep|figures"},
		{"sweep -routing base -loads 0.1 0.3 -warmup 100 -measure 100 -seeds 1", 2, `unexpected argument "0.3"`},
		{"point -warmup 100 -measure 100 -seeds 1 stray", 2, `unexpected argument "stray"`},
		{"figures -fig fig6 -scale tiny extra", 2, `unexpected argument "extra"`},
		{"transient -measure 1", 2, "flag provided but not defined: -measure"},
		{"point -traffic2 adv+1", 2, "flag provided but not defined: -traffic2"},
		{"sweep -fig fig5b", 2, "flag provided but not defined: -fig"},
		{"figures -loads 0.1", 2, "flag provided but not defined: -loads"},
		{"point -routing base,olm", 1, "point runs one mechanism"},
		{"sweep -routing base -congestion on:mark=80", 1, "off | on"},
		{"sweep -routing base -loads 0.1,x", 1, `parsing "x"`},
		{"figures -scale huge", 1, "unknown scale"},
	} {
		code, stdout, stderr := runCLI(strings.Fields(tc.line)...)
		if code != tc.code || stdout != "" || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("cbar %s: exit %d, stdout %q, stderr %q; want exit %d, no output, stderr containing %q",
				tc.line, code, stdout, stderr, tc.code, tc.stderr)
		}
	}
}

// TestTransientCancelKeepsProfiles: a cancelled transient run ends
// through run's return path, status 130, so its profiles are finished —
// the CPU profile is a whole gzip stream and the heap profile is
// written. It runs under an already-cancelled context, so it stops
// before its first seed.
func TestTransientCancelKeepsProfiles(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	line := "transient -scale tiny -routing base -warmup 100 -post 200 -bucket 50 -seeds 1 -cpuprofile " + cpu + " -memprofile " + mem
	var out, errOut bytes.Buffer
	if code := run(ctx, strings.Fields(line), &out, &errOut); code != 130 {
		t.Fatalf("cbar %s under a cancelled context: exit %d, want 130\n%s", line, code, errOut.String())
	}
	f, err := os.Open(cpu)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("cpu profile: %v", err)
	}
	if data, err := io.ReadAll(zr); err != nil || len(data) == 0 {
		t.Fatalf("cpu profile: %d bytes decompressed, err %v", len(data), err)
	}
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Fatalf("heap profile not written: %v", err)
	}
}

// TestHelpListsEveryName: the -routing and -scale help of every
// subcommand that reads them is generated from the names tables
// (routing.Grammar and sim.ScaleGrammar, whose own tests hold them to
// every name the tables parse), as -traffic and -faults are from their
// grammars.
func TestHelpListsEveryName(t *testing.T) {
	for _, sub := range []string{"point", "transient", "sweep", "figures"} {
		fs := (&cli{sub: sub}).flags()
		for _, tc := range [...]struct{ flag, grammar string }{{"scale", sim.ScaleGrammar()}, {"routing", routing.Grammar()}} {
			flag, grammar := tc.flag, tc.grammar
			f := fs.Lookup(flag)
			if f == nil {
				if sub != "figures" || flag != "routing" {
					t.Errorf("cbar %s has no -%s", sub, flag)
				}
				continue
			}
			if !strings.Contains(f.Usage, grammar) {
				t.Errorf("cbar %s -%s help %q does not list %q", sub, flag, f.Usage, grammar)
			}
		}
	}
}
