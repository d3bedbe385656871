package main

// serve_point: ghostdb-server's handler on a loopback listener over a
// 2-shard simulated-device engine, loaded through POST /v1/exec; two
// closed-loop clients post the prepared point lookup with keys uniform
// over the prescriptions.

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/driver"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/server"
	"github.com/ghostdb/ghostdb/internal/value"
)

const (
	serveDSN      = "ghostdb://?shards=2"
	serveClients  = 2
	warmupLookups = 200
	// insertsPerRequest batches INSERT statements into one /v1/exec
	// script during the load.
	insertsPerRequest = 10
	rowsPerInsert     = 1000
	// The write probe that closes the read-only workloads.
	probeUnits       = 600
	probeCheckpoints = 10
	replayCalls      = 200
	// serveWindow is about how long one window of the timed phase lasts;
	// the read figures are medians over the windows.
	serveWindow = time.Second
)

// served is one engine behind one HTTP server.
type served struct {
	db  *core.DB
	srv *server.Server
	hs  *http.Server
	tr  *http.Transport
	url string
}

func (s *served) close() {
	s.hs.Shutdown(context.Background())
	s.tr.CloseIdleConnections()
	s.srv.Close()
	s.db.Close()
}

func (s *served) client() *httpSurface {
	return &httpSurface{base: s.url, client: &http.Client{Transport: s.tr, Timeout: time.Minute}}
}

// serveSetup opens the engine, starts the server and loads the data
// through it, ending with the first answered lookup.
func serveSetup(ddl, inserts []string, firstKey int64, m *model, o *outcome) (*served, time.Duration, error) {
	t0 := time.Now()
	db, err := driver.OpenEngine(serveDSN)
	if err != nil {
		return nil, 0, err
	}
	srv, err := server.New(db, server.Config{})
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		db.Close()
		return nil, 0, err
	}
	s := &served{
		db:  db,
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		tr:  &http.Transport{MaxIdleConns: serveClients + 1, MaxIdleConnsPerHost: serveClients + 1},
		url: "http://" + ln.Addr().String(),
	}
	go s.hs.Serve(ln)
	c := s.client()
	if _, err := c.exec(strings.Join(ddl, ";\n")); err != nil {
		s.close()
		return nil, 0, err
	}
	for lo := 0; lo < len(inserts); lo += insertsPerRequest {
		script := strings.Join(inserts[lo:min(lo+insertsPerRequest, len(inserts))], ";\n")
		if _, err := c.exec(script); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	rows, err := c.lookup(firstKey)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	elapsed := time.Since(t0)
	checkLookup(o, m, firstKey, rows)
	return s, elapsed, nil
}

// clientLoop is one closed-loop client's record.
type clientLoop struct {
	lat      samplesList
	began    []time.Duration // when each lookup began, from the start
	engine   samplesList     // response wall_ns (traced runs)
	overhead samplesList     // latency minus wall_ns (traced runs)
	simNS    int64
	retries  int64
	err      error
}

func runServePoint(o opts) (*outcome, error) {
	out := newOutcome()
	ds := generate(o.scale, o.seed)
	m := newModel(ds)
	ddl, inserts := loadStatements(ds, rowsPerInsert)
	out.sizes["prescriptions"] = ds.Table("Prescription").N
	out.sizes["visits"] = ds.Table("Visit").N
	out.sizes["shards"] = 2
	out.sizes["clients"] = serveClients
	ds = nil

	rng := rand.New(rand.NewSource(o.seed))
	var setups []float64
	var s *served
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
		}
		var d time.Duration
		var err error
		s, d, err = serveSetup(ddl, inserts, m.pickLive(rng), m, out)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.close()
	ddl, inserts = nil, nil
	out.metrics["setup_s"] = median(setups)
	out.samples["setup"] = len(setups)

	loops := make([]*clientLoop, serveClients)
	surfaces := make([]*httpSurface, serveClients)
	rngs := make([]*rand.Rand, serveClients)
	for i := range loops {
		loops[i] = &clientLoop{lat: make(samplesList, 0, 1<<15), began: make([]time.Duration, 0, 1<<15)}
		surfaces[i] = s.client()
		rngs[i] = rand.New(rand.NewSource(o.seed*1000 + int64(i) + 1))
	}
	// Warm-up: every client runs the same number of lookups untimed.
	var wg sync.WaitGroup
	for i := range loops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < warmupLookups && loops[i].err == nil; n++ {
				key := m.pickLive(rngs[i])
				rows, err := surfaces[i].lookup(key)
				if err != nil {
					loops[i].err = err
					return
				}
				checkLookupLocked(out, m, key, rows)
			}
		}(i)
	}
	wg.Wait()
	for _, l := range loops {
		if l.err != nil {
			return nil, l.err
		}
	}

	var host *hostMeter
	var cache0 = s.db.PlanCacheStats()
	events0 := s.db.Recorder().Len()
	if o.traced {
		host = startHost()
	}
	runtime.GC()
	start := time.Now()
	deadline := start.Add(o.duration)
	for i := range loops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, c, r := loops[i], surfaces[i], rngs[i]
			for time.Now().Before(deadline) {
				key := m.pickLive(r)
				t0 := time.Now()
				rows, err := c.lookup(key)
				lat := time.Since(t0)
				if err != nil {
					l.err = err
					return
				}
				l.lat = append(l.lat, lat)
				l.began = append(l.began, t0.Sub(start))
				l.simNS += c.lastSimNS
				if o.traced {
					eng := time.Duration(c.lastWallNS)
					l.engine = append(l.engine, eng)
					l.overhead = append(l.overhead, lat-eng)
				}
				checkLookupLocked(out, m, key, rows)
			}
			l.retries = c.retries
		}(i)
	}
	wg.Wait()
	nw := max(1, int(o.duration/serveWindow))
	wlen := o.duration / time.Duration(nw)
	windows := make([]samplesList, nw)
	var engine, overhead samplesList
	var simNS, retries int64
	n := int64(0)
	for _, l := range loops {
		if l.err != nil {
			return nil, l.err
		}
		for i, d := range l.lat {
			w := min(int(l.began[i]/wlen), nw-1)
			windows[w] = append(windows[w], d)
		}
		n += int64(len(l.lat))
		engine = append(engine, l.engine...)
		overhead = append(overhead, l.overhead...)
		simNS += l.simNS
		retries += l.retries
	}
	if n == 0 {
		return nil, errors.New("no lookup completed in the timed phase")
	}
	out.attempted = n
	if o.traced {
		host.finish(out, n)
		out.metrics["server.engine_ms_p50"] = engine.quantile(0.5)
		out.metrics["server.overhead_ms_p50"] = overhead.quantile(0.5)
		out.metrics["server.retries_429"] = float64(retries)
		cache := s.db.PlanCacheStats()
		out.metrics["plancache.hit_ratio"] = hitRatio(cache.Hits-cache0.Hits, cache.Misses-cache0.Misses)
		out.metrics["trace.events_per_op"] = float64(s.db.Recorder().Len()-events0) / float64(n)
	}
	rates := make([]float64, nw)
	for i, w := range windows {
		rates[i] = float64(len(w)) / wlen.Seconds()
	}
	out.metrics["ops_per_s"] = median(rates)
	out.setWindowed("read", windows)
	out.metrics["sim_ms_per_read"] = float64(simNS) / 1e6 / float64(n)
	out.metrics["live_heap_mb"] = heapMB()

	if o.traced {
		calls := make([]call, replayCalls)
		for i := range calls {
			calls[i] = call{sql: lookupSQL, args: []value.Value{value.NewInt(m.pickLive(rng))}}
		}
		if err := replayOn(s.db, calls, out); err != nil {
			return nil, err
		}
	}

	d := &dmlRunner{s: s.client(), m: m, o: out}
	if o.traced {
		d.cp, d.db = &checkpointAgg{}, s.db
	}
	if err := d.writeProbe(rng, probeUnits, probeCheckpoints); err != nil {
		return nil, err
	}
	out.attempted += d.ops
	d.emitWrites()
	if o.traced {
		d.cp.emit(out)
	}
	out.metrics["device_mb"] = float64(s.db.Storage().Total) / (1 << 20)
	return out, nil
}

// outcomeMu serializes answer checks from concurrent clients.
var outcomeMu sync.Mutex

func checkLookupLocked(o *outcome, m *model, key int64, rows []lookupRow) {
	qty, purpose := m.expect(key)
	if len(rows) == 1 && rows[0].qty == qty && rows[0].purpose == purpose {
		return
	}
	outcomeMu.Lock()
	defer outcomeMu.Unlock()
	checkLookup(o, m, key, rows)
}

func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
