package main

import (
	"math/rand"
	"runtime"
	"time"

	"github.com/ghostdb/ghostdb/internal/core"
)

// dmlRunner runs lookups, write units and checkpoints through one
// surface and checks each against the model.
type dmlRunner struct {
	s surface
	m *model
	o *outcome

	reads       samplesList
	writes      samplesList
	checkpoints samplesList
	ops         int64 // statements completed
	// cuts end the windows the figures are summarised over: one at the
	// start of a timed phase and one after every CHECKPOINT, so each
	// window is one checkpoint cycle.
	cuts []cut

	// simNow, when set, reads the session's simulated device time, so
	// that readSim sums the lookups' share of it.
	simNow  func() time.Duration
	readSim time.Duration

	// cp and db are set in traced runs to observe each CHECKPOINT.
	cp *checkpointAgg
	db *core.DB
}

// cut is where one window ends and the next begins.
type cut struct {
	reads, writes int
	ops           int64
	at            time.Time
}

// mark cuts the current window.
func (d *dmlRunner) mark() {
	d.cuts = append(d.cuts, cut{reads: len(d.reads), writes: len(d.writes), ops: d.ops, at: time.Now()})
}

// windows splits the lookup and write samples at the cuts.
func (d *dmlRunner) windows() (reads, writes []samplesList) {
	for i := 1; i < len(d.cuts); i++ {
		a, b := d.cuts[i-1], d.cuts[i]
		reads = append(reads, d.reads[a.reads:b.reads])
		writes = append(writes, d.writes[a.writes:b.writes])
	}
	return reads, writes
}

// opsPerSec is the median over the windows of each window's statements
// per second.
func (d *dmlRunner) opsPerSec() float64 {
	var rates []float64
	for i := 1; i < len(d.cuts); i++ {
		a, b := d.cuts[i-1], d.cuts[i]
		rates = append(rates, float64(b.ops-a.ops)/b.at.Sub(a.at).Seconds())
	}
	return median(rates)
}

// lookup runs the point lookup for a live key and checks the answer.
func (d *dmlRunner) lookup(key int64) error {
	var sim0 time.Duration
	if d.simNow != nil {
		sim0 = d.simNow()
	}
	t0 := time.Now()
	rows, err := d.s.lookup(key)
	d.reads = append(d.reads, time.Since(t0))
	if err != nil {
		return err
	}
	if d.simNow != nil {
		d.readSim += d.simNow() - sim0
	}
	d.ops++
	checkLookup(d.o, d.m, key, rows)
	return nil
}

// checkLookup compares a lookup answer with the model.
func checkLookup(o *outcome, m *model, key int64, rows []lookupRow) {
	qty, purpose := m.expect(key)
	if len(rows) != 1 || rows[0].qty != qty || rows[0].purpose != purpose {
		o.fail("lookup PreID=%d: got %v, want [{%d %s}]", key, rows, qty, purpose)
	}
}

// unit draws one write unit, runs its three statements and checks that
// each touched exactly one row.
func (d *dmlRunner) unit(rng *rand.Rand) error {
	u := d.m.nextUnit(rng)
	t0 := time.Now()
	ni, err := d.s.exec(insertSQL, u.insert...)
	if err != nil {
		return err
	}
	nu, err := d.s.exec(updateSQL, u.update...)
	if err != nil {
		return err
	}
	nd, err := d.s.exec(deleteSQL, u.delete...)
	if err != nil {
		return err
	}
	d.writes = append(d.writes, time.Since(t0))
	d.ops += 3
	if ni != 1 || nu != 1 || nd != 1 {
		d.o.fail("write unit %v/%v/%v: rows affected %d/%d/%d, want 1/1/1", u.insert, u.update, u.delete, ni, nu, nd)
	}
	return nil
}

// checkpoint runs CHECKPOINT, renumbers the model and checks COUNT and
// SUM against it.
func (d *dmlRunner) checkpoint() error {
	t0 := time.Now()
	var err error
	if d.cp != nil {
		_, err = d.cp.observe(d.db, d.s.checkpoint)
	} else {
		_, err = d.s.checkpoint()
	}
	if err != nil {
		return err
	}
	d.checkpoints = append(d.checkpoints, time.Since(t0))
	d.m.checkpoint()
	n, sum, err := d.s.totals()
	if err != nil {
		return err
	}
	d.ops += 2
	checkTotals(d.o, d.m, n, sum)
	d.mark()
	return nil
}

func checkTotals(o *outcome, m *model, n, sum int64) {
	if n != int64(m.liveN) || sum != m.sumQty {
		o.fail("after CHECKPOINT: COUNT=%d SUM=%d, want %d and %d", n, sum, m.liveN, m.sumQty)
	}
}

// writeProbe is the fixed write phase that closes the read-only
// workloads: units write units with a CHECKPOINT after every
// units/checkpoints of them. It is the same in every run, so write and
// checkpoint latencies are measured on every workload.
func (d *dmlRunner) writeProbe(rng *rand.Rand, units, checkpoints int) error {
	every := units / checkpoints
	runtime.GC()
	d.mark()
	for i := 1; i <= units; i++ {
		if err := d.unit(rng); err != nil {
			return err
		}
		if i%every == 0 {
			if err := d.checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitWrites sets the write and checkpoint metrics.
func (d *dmlRunner) emitWrites() {
	_, writes := d.windows()
	d.o.setWindowed("write", writes)
	d.o.metrics["checkpoint_ms"] = median(msList(d.checkpoints))
	d.o.samples["checkpoint"] = len(d.checkpoints)
}

func msList(s samplesList) []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = ms(d)
	}
	return out
}
