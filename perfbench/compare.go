package main

// The compare command reads sets of run outputs and reports, per
// workload and metric, the median and quartiles of each set, how far
// the quartiles spread around the median, and — given two sets — the
// change of the median and the share of run pairs the second set wins.
// It checks both against the bounds in BENCHMARK.json:
//
//	perfbench compare runs/a/*.out                 # one set: steadiness
//	perfbench compare runs/a/*.out -- runs/b/*.out # two sets: agreement
//
// Quartiles follow Python's statistics.quantiles(values, n=4).

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runFile is one parsed run output.
type runFile struct {
	path     string
	workload string
	correct  bool
	attempt  int64
	failed   int64
	metrics  map[string]metric
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var setA, setB []string
	rest := fs.Args()
	for i, a := range rest {
		if a == "--" {
			setA, setB = rest[:i], rest[i+1:]
			break
		}
	}
	if setA == nil {
		setA = rest
	}
	if len(setA) == 0 {
		fmt.Fprintln(stderr, "perfbench compare: no run outputs given")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	a, err := readRuns(setA)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	var b []runFile
	if len(setB) > 0 {
		if b, err = readRuns(setB); err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
	}
	if ok := compareSets(stdout, spec, a, b); !ok {
		return 1
	}
	return 0
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns parses run outputs: the stamp line and the result line.
func readRuns(paths []string) ([]runFile, error) {
	var out []runFile
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		r := runFile{path: p}
		var last string
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if strings.HasPrefix(line, `{"stamp"`) {
				var st struct{ Stamp stamp }
				if json.Unmarshal([]byte(line), &st) == nil {
					r.workload = st.Stamp.Workload
				}
			}
			if line != "" {
				last = line
			}
		}
		f.Close()
		var res struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
			return nil, fmt.Errorf("%s: last line is not a result", p)
		}
		if r.workload == "" {
			return nil, fmt.Errorf("%s: no stamp line", p)
		}
		r.correct, r.attempt, r.failed, r.metrics = res.Correct, res.Attempted, res.Failed, res.Metrics
		out = append(out, r)
	}
	return out, nil
}

// quartiles mirrors Python's statistics.quantiles(data, n=4), whose
// default method is "exclusive".
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// compareSets prints the report and says whether every check held.
func compareSets(w io.Writer, spec *benchSpec, a, b []runFile) bool {
	type metricSpec struct {
		better string
		bound  float64
	}
	specs := map[string]metricSpec{}
	var names []string
	for _, m := range spec.EndToEnd {
		specs[m.Name] = metricSpec{m.Better, m.Bound}
		names = append(names, m.Name)
	}
	for _, m := range spec.PerLayer {
		specs[m.Name] = metricSpec{m.Better, 0}
		names = append(names, m.Name)
	}
	group := func(runs []runFile) map[string][]runFile {
		g := map[string][]runFile{}
		for _, r := range runs {
			g[r.workload] = append(g[r.workload], r)
		}
		return g
	}
	ga, gb := group(a), group(b)
	var workloadsSeen []string
	for wl := range ga {
		workloadsSeen = append(workloadsSeen, wl)
	}
	sort.Strings(workloadsSeen)
	ok := true
	for _, wl := range workloadsSeen {
		ra, rb := ga[wl], gb[wl]
		fmt.Fprintf(w, "\n== %s: %d runs", wl, len(ra))
		if b != nil {
			fmt.Fprintf(w, " vs %d runs", len(rb))
		}
		fmt.Fprintln(w)
		for _, set := range [][]runFile{ra, rb} {
			for _, r := range set {
				if !r.correct {
					fmt.Fprintf(w, "  FAIL %s: correct=false\n", r.path)
					ok = false
				}
			}
		}
		shareA, shareB := failedShare(ra), failedShare(rb)
		fmt.Fprintf(w, "  failed share: %.6f", shareA)
		if b != nil {
			fmt.Fprintf(w, " vs %.6f", shareB)
			if shareA != shareB {
				fmt.Fprint(w, "  FAIL: differs")
				ok = false
			}
		}
		fmt.Fprintln(w)
		if b == nil {
			fmt.Fprintf(w, "  %-44s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		} else {
			fmt.Fprintf(w, "  %-44s %12s %12s %8s %8s %6s %6s\n", "metric", "median A", "median B", "change", "spreadA", "bound", "B wins")
		}
		for _, name := range names {
			va := values(ra, name)
			if len(va) == 0 {
				continue
			}
			s := specs[name]
			q1, med, q3 := quartiles(va)
			spread := (q3 - q1) / math.Abs(med)
			if med == 0 {
				spread = 0
			}
			verdict := ""
			if s.bound > 0 && name != "setup_s" && spread > s.bound {
				verdict = "  FAIL: spread over bound"
				ok = false
			} else if s.bound > 0 && name != "setup_s" && spread > s.bound/3 {
				verdict = "  (spread over a third of the bound)"
			}
			if b == nil {
				fmt.Fprintf(w, "  %-44s %12.4g %12.4g %12.4g %8.4f %6s%s\n", name, q1, med, q3, spread, boundText(s.bound), verdict)
				continue
			}
			vb := values(rb, name)
			if len(vb) == 0 {
				continue
			}
			_, medB, _ := quartiles(vb)
			change := 0.0
			if med != 0 {
				change = (medB - med) / math.Abs(med)
			}
			worse := change
			if s.better == "higher" {
				worse = -change
			}
			if s.bound > 0 && worse > s.bound {
				verdict += "  FAIL: B worse than A by more than the bound"
				ok = false
			}
			fmt.Fprintf(w, "  %-44s %12.4g %12.4g %+8.4f %8.4f %6s %6.2f%s\n", name, med, medB, change, spread, boundText(s.bound), winShare(va, vb, s.better), verdict)
		}
	}
	if ok {
		fmt.Fprintln(w, "\nall checks hold")
	} else {
		fmt.Fprintln(w, "\nsome checks FAILED")
	}
	return ok
}

func boundText(b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", b)
}

func values(runs []runFile, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedShare(runs []runFile) float64 {
	var att, failed int64
	for _, r := range runs {
		att += r.attempt
		failed += r.failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// winShare is the share of all (a, b) pairs in which b is better; ties
// count for neither side.
func winShare(a, b []float64, better string) float64 {
	wins, pairs := 0, 0
	for _, x := range a {
		for _, y := range b {
			pairs++
			if (better == "higher" && y > x) || (better != "higher" && y < x) {
				wins++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(wins) / float64(pairs)
}
