package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports
// every one of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"checkpoint_ms", "ms"},
	{"sim_ms_per_read", "ms"},
	{"live_heap_mb", "MB"},
	{"device_mb", "MB"},
}

// operators are the operator names execution reports carry; the traced
// run reports exec.<Op>.sim_ms_per_read and exec.<Op>.tuples_per_read
// for each, zero where a workload's plans never use the operator.
var operators = []string{
	"AccessSKT", "BNLFilter", "BloomBuild", "ClimbingIndex", "ColumnScan",
	"DeltaScan", "FKChase", "Filter", "GraceFilter", "Intersect",
	"MergeLists", "MergeProject", "Project", "ShipIDList", "Sort", "Store",
	"Tombstones", "Translate", "ValueIndex",
}

// perLayer lists the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.overhead_ms_p50", "ms"},
		{"server.engine_ms_p50", "ms"},
		{"server.retries_429", "count"},
		{"driver.query_ms_per_op", "ms"},
		{"driver.scan_us_per_row", "us"},
		{"core.compile_us_per_op", "us"},
		{"plancache.hit_ratio", "ratio"},
		{"core.run_ms_per_read", "ms"},
		{"shard.touched_per_read", "count"},
		{"device.flash_page_reads_per_read", "count"},
		{"device.bus_bytes_per_read", "B"},
		{"device.bus_msgs_per_read", "count"},
		{"device.ram_high_kb", "KB"},
		{"delta.rows_at_checkpoint", "count"},
		{"delta.tombstones_at_checkpoint", "count"},
		{"delta.device_kb", "KB"},
		{"checkpoint.absorbed", "count"},
		{"checkpoint.sim_ms", "ms"},
		{"storage.pages_programmed_per_checkpoint", "count"},
		{"storage.block_erases_per_checkpoint", "count"},
		{"storage.bytes_programmed_per_user_byte", "ratio"},
		{"trace.events_per_op", "count"},
		{"host.allocs_per_op", "count"},
		{"host.alloc_kb_per_op", "KB"},
		{"host.gc_cycles", "count"},
		{"host.heap_growth_kb_per_op", "KB"},
	}
	for _, op := range operators {
		defs = append(defs,
			metricDef{"exec." + op + ".sim_ms_per_read", "ms"},
			metricDef{"exec." + op + ".tuples_per_read", "count"})
	}
	return defs
}()

// outcome is what a workload run produced: the answer check, the
// operation counts and the metrics of both kinds.
type outcome struct {
	correct    bool
	wrong      int
	firstWrong string
	attempted  int64
	failed     int64

	metrics map[string]float64
	// samples counts the raw samples behind each quantile and mean.
	samples map[string]int
	// sizes records the input make-up.
	sizes map[string]int
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]float64{}, samples: map[string]int{}, sizes: map[string]int{}}
}

// fail records a wrong answer. The run goes on, so that every wrong
// answer is counted, and reports correct=false at the end.
func (o *outcome) fail(format string, args ...any) {
	if o.wrong == 0 {
		o.firstWrong = fmt.Sprintf(format, args...)
	}
	o.wrong++
	o.correct = false
}

// result renders the last output line. Every workload sets every
// end-to-end metric; a per-layer metric the workload does not exercise
// is reported as zero.
func (o *outcome) result(traced bool) map[string]any {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: o.metrics[d.name], Unit: d.unit}
	}
	return map[string]any{
		"correct":   o.correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   m,
	}
}

// samplesList holds raw per-operation durations of one operation class.
type samplesList []time.Duration

// quantile returns the exact nearest-rank q-quantile in milliseconds.
func (s samplesList) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samplesList(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(q*float64(len(c))+0.999999999) - 1
	rank = max(0, min(rank, len(c)-1))
	return ms(c[rank])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setQuantiles stores the p50 and p90 of one class under prefix.
func (o *outcome) setQuantiles(prefix string, s samplesList) {
	o.metrics[prefix+"_p50_ms"] = s.quantile(0.5)
	o.metrics[prefix+"_p90_ms"] = s.quantile(0.9)
	o.samples[prefix] = len(s)
}

// setWindowed stores the p50 and p90 of one class under prefix, each
// the median over the run's windows of the window's exact quantile. A
// burst of outside load that slows fewer than half of the windows then
// moves neither figure, where it would move a quantile of the pooled
// samples.
func (o *outcome) setWindowed(prefix string, ws []samplesList) {
	var p50, p90 []float64
	n := 0
	for _, w := range ws {
		if len(w) == 0 {
			continue
		}
		p50 = append(p50, w.quantile(0.5))
		p90 = append(p90, w.quantile(0.9))
		n += len(w)
	}
	o.metrics[prefix+"_p50_ms"] = median(p50)
	o.metrics[prefix+"_p90_ms"] = median(p90)
	o.samples[prefix] = n
	o.samples[prefix+"_windows"] = len(p50)
}

// stamp describes the host and the run; it is printed on the line
// before the result.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	Setups     int            `json:"setups"`
	Sizes      map[string]int `json:"sizes"`
	Samples    map[string]int `json:"samples"`
	Attempted  int64          `json:"attempted"`
	Failed     int64          `json:"failed"`
	Correct    bool           `json:"correct"`
	CPU        string         `json:"cpu"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	// TracedEndToEnd holds, in a traced run, the end-to-end metrics as
	// measured with tracing on; against an untraced run they give the
	// tracing overhead.
	TracedEndToEnd map[string]float64 `json:"traced_end_to_end,omitempty"`
}

func newStamp(name string, o opts, out *outcome) stamp {
	var traced map[string]float64
	if o.traced {
		traced = map[string]float64{}
		for _, d := range endToEnd {
			traced[d.name] = out.metrics[d.name]
		}
	}
	return stamp{
		Workload:   name,
		Seed:       o.seed,
		Seconds:    o.duration.Seconds(),
		Traced:     o.traced,
		Setups:     o.setups,
		Sizes:      out.sizes,
		Samples:    out.samples,
		Attempted:  out.attempted,
		Failed:     out.failed,
		Correct:    out.correct,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),

		TracedEndToEnd: traced,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the Go toolchain stamped into the binary,
// or "unknown" when it was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// heapMB forces a collection and reports the live Go heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median of a small set of values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
