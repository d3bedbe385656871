package main

// mixed_dml: one database/sql connection to an unsharded engine on the
// file backend, fsync off (the engine flushes nothing at commit points
// and the benchmark syncs nothing either), loaded through Exec. A seeded
// fixed sequence interleaves point lookups with write units (INSERT,
// keyed UPDATE, keyed DELETE) and runs an explicit CHECKPOINT after
// every fixed number of units.

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	_ "github.com/ghostdb/ghostdb/driver"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/value"
)

const (
	lookupsPerUnit     = 4
	unitsPerCheckpoint = 60
	warmupUnits        = 10
)

// sqlEngine is one database/sql connection to a fresh engine.
type sqlEngine struct {
	db   *sql.DB
	s    *sqlSurface
	core *core.DB
	dir  string // file backend directory, removed on close
}

func (e *sqlEngine) close() {
	e.s.close()
	e.db.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// sqlSetup opens the engine dsn names, loads the data through one
// connection's Exec and runs first, the first answered query.
func sqlSetup(dsn string, ddl, inserts []string, first func(*sqlSurface) error) (*sqlEngine, time.Duration, error) {
	t0 := time.Now()
	db, err := sql.Open("ghostdb", dsn)
	if err != nil {
		return nil, 0, err
	}
	conn, err := db.Conn(context.Background())
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	e := &sqlEngine{db: db, s: newSQLSurface(conn)}
	fail := func(err error) (*sqlEngine, time.Duration, error) {
		e.close()
		return nil, 0, err
	}
	for _, stmt := range ddl {
		if _, err := e.s.exec(stmt); err != nil {
			return fail(err)
		}
	}
	for _, stmt := range inserts {
		if _, err := e.s.exec(stmt); err != nil {
			return fail(err)
		}
	}
	if err := first(e.s); err != nil {
		return fail(err)
	}
	elapsed := time.Since(t0)
	sess, err := e.s.session()
	if err != nil {
		return fail(err)
	}
	e.core = sess.DB()
	return e, elapsed, nil
}

// setupMany runs setup o.setups times, keeping the last engine, and
// records the median set-up time.
func setupMany(o opts, out *outcome, setup func(i int) (*sqlEngine, time.Duration, error)) (*sqlEngine, error) {
	var times []float64
	var e *sqlEngine
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.close()
		}
		var d time.Duration
		var err error
		if e, d, err = setup(i); err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	out.metrics["setup_s"] = median(times)
	out.samples["setup"] = len(times)
	return e, nil
}

func runMixedDML(o opts) (*outcome, error) {
	out := newOutcome()
	ds := generate(o.scale, o.seed)
	m := newModel(ds)
	ddl, inserts := loadStatements(ds, rowsPerInsert)
	out.sizes["prescriptions"] = ds.Table("Prescription").N
	out.sizes["visits"] = ds.Table("Visit").N
	out.sizes["lookups_per_unit"] = lookupsPerUnit
	out.sizes["units_per_checkpoint"] = unitsPerCheckpoint
	ds = nil

	rng := rand.New(rand.NewSource(o.seed))
	e, err := setupMany(o, out, func(i int) (*sqlEngine, time.Duration, error) {
		dir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("mixed_dml-%d-%d", os.Getpid(), i)))
		if err != nil {
			return nil, 0, err
		}
		os.RemoveAll(dir)
		dsn := "ghostdb://?backend=file&fsync=off&path=" + dir
		e, d, err := sqlSetup(dsn, ddl, inserts, func(s *sqlSurface) error {
			key := m.pickLive(rng)
			rows, err := s.lookup(key)
			if err == nil {
				checkLookup(out, m, key, rows)
			}
			return err
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		e.dir = dir
		return e, d, nil
	})
	if err != nil {
		return nil, err
	}
	defer e.close()
	ddl, inserts = nil, nil

	d := &dmlRunner{s: e.s, m: m, o: out}
	cycle := func() error {
		for i := 0; i < lookupsPerUnit; i++ {
			if err := d.lookup(m.pickLive(rng)); err != nil {
				return err
			}
		}
		return d.unit(rng)
	}
	for i := 0; i < warmupUnits; i++ {
		if err := cycle(); err != nil {
			return nil, err
		}
	}
	d.reads, d.writes, d.ops, d.cuts = d.reads[:0], d.writes[:0], 0, nil

	sess, err := e.s.session()
	if err != nil {
		return nil, err
	}
	d.simNow = func() time.Duration { return sess.Stats().DeviceTime }
	cache0 := e.core.PlanCacheStats()
	flash0 := e.core.Device().Flash.Stats()
	events0 := e.core.Recorder().Len()
	var host *hostMeter
	if o.traced {
		d.cp, d.db = &checkpointAgg{}, e.core
		e.s.timed = true
		host = startHost()
	}
	runtime.GC()
	start := time.Now()
	deadline := start.Add(o.duration)
	d.mark()
	units := 0
	// The timed phase ends with a whole checkpoint cycle, so every run
	// has the same mix of lookups, writes and checkpoints.
	for units%unitsPerCheckpoint != 0 || time.Now().Before(deadline) {
		if err := cycle(); err != nil {
			return nil, err
		}
		units++
		if units%unitsPerCheckpoint == 0 {
			if err := d.checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if len(d.checkpoints) == 0 {
		return nil, errors.New("no CHECKPOINT in the timed phase; run longer")
	}
	out.attempted = d.ops
	out.samples["units"] = units
	if o.traced {
		e.s.timed = false
		host.finish(out, d.ops)
		e.s.emitDriver(out)
		cache := e.core.PlanCacheStats()
		out.metrics["plancache.hit_ratio"] = hitRatio(cache.Hits-cache0.Hits, cache.Misses-cache0.Misses)
		out.metrics["trace.events_per_op"] = float64(e.core.Recorder().Len()-events0) / float64(d.ops)
		d.cp.bytesProgrammedTotal = e.core.Device().Flash.Stats().Sub(flash0).BytesProgrammed
		d.cp.userBytes = int64(units) * unitArgBytes
		d.cp.emit(out)
	}
	out.metrics["ops_per_s"] = d.opsPerSec()
	reads, _ := d.windows()
	out.setWindowed("read", reads)
	d.emitWrites()
	out.metrics["sim_ms_per_read"] = ms(d.readSim) / float64(len(d.reads))
	out.metrics["live_heap_mb"] = heapMB()
	out.metrics["device_mb"] = float64(e.core.Storage().Total) / (1 << 20)

	if o.traced {
		// The timed phase ends on a CHECKPOINT; half a cycle of writes
		// gives the replayed lookups a delta to merge, as most lookups
		// of the sequence have.
		for i := 0; i < unitsPerCheckpoint/2; i++ {
			if err := d.unit(rng); err != nil {
				return nil, err
			}
		}
		out.attempted = d.ops
		calls := make([]call, replayCalls)
		for i := range calls {
			calls[i] = call{sql: lookupSQL, args: []value.Value{value.NewInt(m.pickLive(rng))}}
		}
		if err := replayOn(e.core, calls, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayOn replays calls on a fresh session of db and sets the replay
// metrics.
func replayOn(db *core.DB, calls []call, out *outcome) error {
	sess, err := db.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	agg := newReplayAgg()
	if err := agg.replay(sess, calls); err != nil {
		return err
	}
	agg.emit(out)
	return nil
}
