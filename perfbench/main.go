// Command perfbench is GhostDB's repository benchmark. It runs one of
// three closed-loop workloads against the engine's public surfaces —
// ghostdb-server's HTTP handler on a loopback listener, or database/sql
// through the ghostdb driver — checks every answer against a computation
// made apart from the engine, and prints the metrics as one JSON object
// on the last line of standard output:
//
//	perfbench --workload serve_point --seed 1 --seconds 10 --trace 0
//	perfbench compare a/*.out -- b/*.out
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, timed around the calls the benchmark
// makes into each layer. The line before it is a stamp describing the
// host and the run. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: serve_point | analytics | mixed_dml")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := opts{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		scale:    w.scale,
		setups:   setupsPerRun,
		workdir:  buildDir,
		log:      stderr,
	}
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	stamp := newStamp(*workload, o, out)
	if err := printJSON(stdout, map[string]any{"stamp": stamp}); err != nil {
		return 1
	}
	if err := printJSON(stdout, out.result(o.traced)); err != nil {
		return 1
	}
	if !out.correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong answers; first: %s\n", *workload, out.wrong, out.firstWrong)
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// workload is one benchmark workload: its default input size and the
// function that sets it up, runs it and checks it.
type workload struct {
	scale int
	run   func(opts) (*outcome, error)
}

var workloads = map[string]workload{
	"serve_point": {scale: 100_000, run: runServePoint},
	"analytics":   {scale: 50_000, run: runAnalytics},
	"mixed_dml":   {scale: 100_000, run: runMixedDML},
}

const (
	// setupsPerRun is how often a run sets up; setup_s is the median.
	setupsPerRun = 5
	// buildDir holds what a run leaves behind (file devices); run.sh
	// builds there too.
	buildDir = ".bench_build"
)

// opts are one run's settings; tests shrink the scale and the set-ups.
type opts struct {
	seed     int64
	duration time.Duration
	traced   bool
	scale    int
	setups   int
	workdir  string
	log      io.Writer
}

func (o opts) logf(format string, args ...any) {
	fmt.Fprintf(o.log, format+"\n", args...)
}
