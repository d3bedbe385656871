package main

// Per-layer measurement for traced runs. Every number here is taken
// from the benchmark's side of a layer boundary: the time around a call
// into a layer's public function, or a counter that layer exports. The
// engine itself is not instrumented further.

import (
	"runtime"
	"time"

	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// hostMeter measures the Go runtime's work across the timed phase.
type hostMeter struct{ start runtime.MemStats }

func startHost() *hostMeter {
	h := &hostMeter{}
	runtime.GC()
	runtime.ReadMemStats(&h.start)
	return h
}

// finish sets the host.* metrics for ops operations.
func (h *hostMeter) finish(o *outcome, ops int64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	gcs := end.NumGC - h.start.NumGC
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(ops, 1))
	o.metrics["host.allocs_per_op"] = float64(end.Mallocs-h.start.Mallocs) / n
	o.metrics["host.alloc_kb_per_op"] = float64(end.TotalAlloc-h.start.TotalAlloc) / 1024 / n
	o.metrics["host.gc_cycles"] = float64(gcs)
	o.metrics["host.heap_growth_kb_per_op"] = (float64(after.HeapAlloc) - float64(h.start.HeapAlloc)) / 1024 / n
}

// call is one replayable SELECT: its text and bound arguments.
type call struct {
	sql  string
	args []value.Value
}

// replayAgg accumulates the in-process replay of sampled statements:
// Session.Compile and Session.QueryCompiled timings and the execution
// reports the engine returns.
type replayAgg struct {
	n         int
	compile   time.Duration
	run       time.Duration
	touched   int
	pageReads int64
	busBytes  int64
	busMsgs   int64
	ramHigh   int64
	opSim     map[string]time.Duration
	opTuples  map[string]int64
}

func newReplayAgg() *replayAgg {
	return &replayAgg{opSim: map[string]time.Duration{}, opTuples: map[string]int64{}}
}

// replay compiles and runs each call on sess, timing the two layer
// entry points separately.
func (a *replayAgg) replay(sess *core.Session, calls []call) error {
	for _, c := range calls {
		t0 := time.Now()
		cq, err := sess.Compile(c.sql)
		t1 := time.Now()
		if err != nil {
			return err
		}
		res, err := sess.QueryCompiled(cq, c.args)
		t2 := time.Now()
		if err != nil {
			return err
		}
		a.compile += t1.Sub(t0)
		a.run += t2.Sub(t1)
		a.add(res)
	}
	return nil
}

func (a *replayAgg) add(res *core.Result) {
	a.n++
	reports := []*stats.Report{res.Report}
	if res.ShardReports != nil {
		reports = reports[:0]
		for _, r := range res.ShardReports {
			if r != nil {
				reports = append(reports, r)
			}
		}
		a.touched += len(reports)
	} else {
		a.touched++
	}
	for _, r := range reports {
		a.pageReads += r.Flash.PageReads
		a.busBytes += r.BusBytes
		a.busMsgs += r.BusMsgs
		a.ramHigh = max(a.ramHigh, r.RAMHigh)
		for _, op := range r.Ops {
			a.opSim[op.Name] += op.Time
			a.opTuples[op.Name] += op.TuplesOut
		}
	}
}

// emit sets the core, shard, device and exec metrics.
func (a *replayAgg) emit(o *outcome) {
	if a.n == 0 {
		return
	}
	n := float64(a.n)
	o.samples["replay"] = a.n
	o.metrics["core.compile_us_per_op"] = float64(a.compile) / float64(time.Microsecond) / n
	o.metrics["core.run_ms_per_read"] = ms(a.run) / n
	o.metrics["shard.touched_per_read"] = float64(a.touched) / n
	o.metrics["device.flash_page_reads_per_read"] = float64(a.pageReads) / n
	o.metrics["device.bus_bytes_per_read"] = float64(a.busBytes) / n
	o.metrics["device.bus_msgs_per_read"] = float64(a.busMsgs) / n
	o.metrics["device.ram_high_kb"] = float64(a.ramHigh) / 1024
	known := map[string]bool{}
	for _, op := range operators {
		known[op] = true
		o.metrics["exec."+op+".sim_ms_per_read"] = ms(a.opSim[op]) / n
		o.metrics["exec."+op+".tuples_per_read"] = float64(a.opTuples[op]) / n
	}
	// An operator missing from the list is named in the stamp, so that
	// the list can be extended.
	for op := range a.opSim {
		if !known[op] {
			o.samples["exec.unlisted."+op] = a.n
		}
	}
}

// checkpointAgg accumulates what the traced run sees around each
// CHECKPOINT: the delta it absorbs and the storage work it does.
type checkpointAgg struct {
	n                               int
	rows, tombstones                int64
	deviceBytes                     int64
	absorbed                        int64
	sim                             time.Duration
	pagesProgrammed, blockErases    int64
	bytesProgrammedTotal, userBytes int64
}

// observe wraps one CHECKPOINT issued by do on db.
func (c *checkpointAgg) observe(db *core.DB, do func() (int64, error)) (int64, error) {
	ds := db.DeltaSummary()
	clock0 := db.Clock().Now()
	st0 := db.Device().Flash.Stats()
	absorbed, err := do()
	if err != nil {
		return absorbed, err
	}
	st := db.Device().Flash.Stats().Sub(st0)
	c.n++
	c.rows += int64(ds.Rows)
	c.tombstones += int64(ds.Tombstones)
	c.deviceBytes += ds.DeviceBytes
	c.absorbed += absorbed
	c.sim += db.Clock().Now() - clock0
	c.pagesProgrammed += st.PagesProgrammed
	c.blockErases += st.BlockErases
	return absorbed, nil
}

func (c *checkpointAgg) emit(o *outcome) {
	if c.userBytes > 0 {
		o.metrics["storage.bytes_programmed_per_user_byte"] = float64(c.bytesProgrammedTotal) / float64(c.userBytes)
	}
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	o.samples["checkpoint_traced"] = c.n
	o.metrics["delta.rows_at_checkpoint"] = float64(c.rows) / n
	o.metrics["delta.tombstones_at_checkpoint"] = float64(c.tombstones) / n
	o.metrics["delta.device_kb"] = float64(c.deviceBytes) / 1024 / n
	o.metrics["checkpoint.absorbed"] = float64(c.absorbed) / n
	o.metrics["checkpoint.sim_ms"] = ms(c.sim) / n
	o.metrics["storage.pages_programmed_per_checkpoint"] = float64(c.pagesProgrammed) / n
	o.metrics["storage.block_erases_per_checkpoint"] = float64(c.blockErases) / n
}
